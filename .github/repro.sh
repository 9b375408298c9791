#!/usr/bin/env bash
# Usage: repro.sh DOCCAT CORPUS OUT [BENCHMARK OPTION...]
#
# Runs `DOCCAT benchmark --repro --seed 7` on CORPUS/train.jsonl and
# CORPUS/test.jsonl into OUT, with any extra benchmark options, then labels
# the test split with three of the models it wrote (one per classifier) into
# OUT-predict/<model>.tsv and writes its preprocessed tokens to
# OUT-predict/test.tokens.jsonl. Fails unless each prediction TSV has one
# line per test document, each of exactly three tab-separated fields (id,
# label, score), and the tokens file has one line per test document. The
# caller compares OUT and OUT-predict of two runs with `diff -r`.
#
# Then `DOCCAT train --seed 7` with the same options trains CHI-SQUARE+NB
# into OUT-train/, which is not compared (the model file holds its creation
# time), and labels the test split with it; the run fails unless that TSV
# equals the benchmark model's OUT-predict/CHI_SQUARE_NB.tsv byte for byte,
# so `train` and `benchmark` build the same model.
#
# Last, it writes a copy of the test split that starts with a UTF-8
# byte-order mark into OUT-train/, preprocesses it and labels it with the
# TFIDF+SGD model; the run fails unless the tokens and the TSV equal
# OUT-predict/test.tokens.jsonl and OUT-predict/TFIDF_SGD.tsv byte for byte,
# so a leading byte-order mark changes no output. (The corpus gives every
# document an explicit id, so the copy's file name appears in no output.)
set -euo pipefail

doccat=$1
corpus=$2
out=$3
shift 3

"$doccat" benchmark --repro --seed 7 "$@" \
  --train "$corpus/train.jsonl" --test "$corpus/test.jsonl" --out-dir "$out"
mkdir -p "$out-predict"
for model in TFIDF_SGD CHI_SQUARE_NB CHI_SQUARE_SVM; do
  tsv="$out-predict/$model.tsv"
  "$doccat" predict --model "$out/model_$model.json" --input "$corpus/test.jsonl" --out "$tsv"
  if [ "$(wc -l < "$tsv")" -ne "$(grep -c . "$corpus/test.jsonl")" ]; then
    echo "$tsv: not one line per test document" >&2
    exit 1
  fi
  if ! awk -F'\t' 'NF != 3 {exit 1}' "$tsv"; then
    echo "$tsv: a line without exactly three fields" >&2
    exit 1
  fi
done
tokens="$out-predict/test.tokens.jsonl"
"$doccat" preprocess --corpus "$corpus/test.jsonl" --out "$tokens"
if [ "$(wc -l < "$tokens")" -ne "$(grep -c . "$corpus/test.jsonl")" ]; then
  echo "$tokens: not one line per test document" >&2
  exit 1
fi
mkdir -p "$out-train"
"$doccat" train --seed 7 "$@" --features chi2 --model nb \
  --corpus "$corpus/train.jsonl" --out "$out-train/model_CHI_SQUARE_NB.json"
"$doccat" predict --model "$out-train/model_CHI_SQUARE_NB.json" \
  --input "$corpus/test.jsonl" --out "$out-train/CHI_SQUARE_NB.tsv"
cmp "$out-train/CHI_SQUARE_NB.tsv" "$out-predict/CHI_SQUARE_NB.tsv"
marked="$out-train/test.bom.jsonl"
{ printf '\357\273\277'; cat "$corpus/test.jsonl"; } > "$marked"
"$doccat" preprocess --corpus "$marked" --out "$out-train/test.bom.tokens.jsonl"
cmp "$out-train/test.bom.tokens.jsonl" "$tokens"
"$doccat" predict --model "$out/model_TFIDF_SGD.json" --input "$marked" \
  --out "$out-train/TFIDF_SGD.bom.tsv"
cmp "$out-train/TFIDF_SGD.bom.tsv" "$out-predict/TFIDF_SGD.tsv"
