#!/usr/bin/env bash
# Usage: repro.sh DOCCAT CORPUS OUT [BENCHMARK OPTION...]
#
# Runs `DOCCAT benchmark --repro --seed 7` on CORPUS/train.jsonl and
# CORPUS/test.jsonl into OUT, with any extra benchmark options, then labels
# the test split with three of the models it wrote (one per classifier) into
# OUT-predict/<model>.tsv. Fails unless each prediction TSV has one line per
# test document, each of exactly three tab-separated fields (id, label,
# score). The caller compares the outputs of two runs with `diff -r`.
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
