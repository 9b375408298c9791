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
# into OUT-train/ and labels the test split with it; the run fails unless
# that model file equals the benchmark's OUT/model_CHI_SQUARE_NB.json and
# that TSV equals OUT-predict/CHI_SQUARE_NB.tsv, byte for byte, so `train`
# and `benchmark` build and save the same model.
#
# Last, it writes two copies of the test split into OUT-train/, one that
# starts with a UTF-8 byte-order mark and one with CRLF line ends,
# preprocesses each and labels each with the TFIDF+SGD model; the run fails
# unless the tokens and the TSV equal OUT-predict/test.tokens.jsonl and
# OUT-predict/TFIDF_SGD.tsv byte for byte, so neither a leading byte-order
# mark nor CRLF line ends change any output. (The corpus gives every
# document an explicit id, so a copy's file name appears in no output.)
# Model files are read by the same rule: a copy of model_TFIDF_SGD.json
# that starts with a byte-order mark must label the test split to the
# same bytes as OUT-predict/TFIDF_SGD.tsv.
#
# Finally it trains TFIDF+NB into OUT-train/ twice, once with --no-stopwords
# and once with --stopwords and an empty file; the run fails unless the two
# model files are equal byte for byte, since switching stopword removal off
# is applying an empty stopword list. It then labels the test split with
# one of them and no preprocessing flag, since a model file holds its tables.
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
cmp "$out-train/model_CHI_SQUARE_NB.json" "$out/model_CHI_SQUARE_NB.json"
cmp "$out-train/CHI_SQUARE_NB.tsv" "$out-predict/CHI_SQUARE_NB.tsv"
{ printf '\357\273\277'; cat "$corpus/test.jsonl"; } > "$out-train/test.bom.jsonl"
awk '{ printf "%s\r\n", $0 }' "$corpus/test.jsonl" > "$out-train/test.crlf.jsonl"
for copy in bom crlf; do
  "$doccat" preprocess --corpus "$out-train/test.$copy.jsonl" \
    --out "$out-train/test.$copy.tokens.jsonl"
  cmp "$out-train/test.$copy.tokens.jsonl" "$tokens"
  "$doccat" predict --model "$out/model_TFIDF_SGD.json" --input "$out-train/test.$copy.jsonl" \
    --out "$out-train/TFIDF_SGD.$copy.tsv"
  cmp "$out-train/TFIDF_SGD.$copy.tsv" "$out-predict/TFIDF_SGD.tsv"
done
{ printf '\357\273\277'; cat "$out/model_TFIDF_SGD.json"; } > "$out-train/model_TFIDF_SGD.bom.json"
"$doccat" predict --model "$out-train/model_TFIDF_SGD.bom.json" --input "$corpus/test.jsonl" \
  --out "$out-train/TFIDF_SGD.bom-model.tsv"
cmp "$out-train/TFIDF_SGD.bom-model.tsv" "$out-predict/TFIDF_SGD.tsv"
model="$out-train/model_TFIDF_NB.no-stopwords.json"
"$doccat" train --seed 7 "$@" --no-stopwords --features tfidf --model nb \
  --corpus "$corpus/train.jsonl" --out "$model"
: > "$out-train/empty-stopwords.txt"
"$doccat" train --seed 7 "$@" --stopwords "$out-train/empty-stopwords.txt" --features tfidf \
  --model nb --corpus "$corpus/train.jsonl" --out "$out-train/model_TFIDF_NB.empty-stopwords.json"
cmp "$out-train/model_TFIDF_NB.empty-stopwords.json" "$model"
"$doccat" predict --model "$model" --input "$corpus/test.jsonl" \
  --out "$out-train/TFIDF_NB.no-stopwords.tsv"
