"""Seeded synthetic Bengali-like corpora for the benchmark workloads.

Twelve classes share one vocabulary model: every word of a document comes
from the document's own class pool with probability ``OWN_SHARE`` and from
a pool shared by all classes otherwise, each pool Zipf-distributed over its
ranks. Shared words carry no class signal, so ``OWN_SHARE`` sets how hard
the task is; at 0.30 four of the six pipelines reach macro-F1 1.000, which
leaves a quality regression no room to show, hence the lower share here.

Words are then inflected and decorated the way ``doccat.textprep`` expects
real text to be: suffixes from the shipped ``bengali_suffixes.tsv``,
stopwords from ``bengali_stopwords.txt``, digits, Latin fragments, attached
punctuation, and sentences ended by danda, ``?`` or ``!``.

All splits of one seed draw from the same pools, each split from its own
random stream, so a split's documents do not depend on the sizes of the
others. The output depends only on the seed and the sizes: it never
iterates a ``set`` or ``dict`` of strings, so it is byte-identical under
any ``PYTHONHASHSEED``. Documents are grouped by label, as
``doccat.corpus.load_dir`` orders a directory corpus.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

LABELS = (
    "accident", "art", "crime", "economics", "education", "entertainment",
    "environment", "international", "opinion", "politics", "science", "sports",
)

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "doccat" / "data"

# Stable stream key per split: adding a split never changes another one.
SPLIT_KEYS = {"pools": 0, "train": 1, "test": 2, "heldout": 3, "predict": 4}

CONSONANTS = "কখগঘচছজঝটঠডতথদধনপফবভমযরলশসহ"
VOWEL_SIGNS = ("", "", "া", "ি", "ী", "ু", "ে", "ো")
LATIN_WORDS = ("Dhaka", "BBC", "GDP", "FIFA", "Internet", "UN", "Cricket", "Covid")
PUNCTUATION = (",", ";", ":", "\"", "'", "(", ")", "“", "”", "—", "…")
SENTENCE_ENDS = ("।", "।", "।", "।", "।", "।", "।", "?", "!")

SHARED_POOL = 4000
OWN_POOL = 600
ZIPF_EXPONENT = 1.05
OWN_SHARE = 0.12

STOPWORD_RATE = 0.12
NUMBER_RATE = 0.03
LATIN_RATE = 0.01
SUFFIX_RATE = 0.30
PUNCT_RATE = 0.06

SENTENCES_PER_DOC = (4, 11)  # half-open ranges for rng.integers
WORDS_PER_SENTENCE = (5, 16)


def read_word_lists(data_dir: Path) -> tuple[list[str], list[str]]:
    """Stopwords (sorted) and suffixes (file order) from the shipped data files."""

    def entries(name: str) -> list[str]:
        lines = (data_dir / name).read_text(encoding="utf-8").splitlines()
        return [e for line in lines if (e := line.split("#", 1)[0].strip())]

    stopwords = sorted(set(entries("bengali_stopwords.txt")))
    suffixes = [entry.split("\t")[0].strip() for entry in entries("bengali_suffixes.tsv")]
    return stopwords, suffixes


def _zipf_cdf(size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1) ** ZIPF_EXPONENT
    return np.cumsum(weights) / weights.sum()


def _make_stems(rng: np.random.Generator, count: int, taken: dict[str, None]) -> list[str]:
    """`count` new distinct stems, none already in `taken`.

    Stem i has 2 + i % 3 syllables: the few top-ranked stems carry a large
    share of all tokens, so drawing their lengths would make text size (and
    preprocessing time) vary from seed to seed by several percent.
    """
    stems: list[str] = []
    while len(stems) < count:
        syllables = 2 + len(stems) % 3
        consonants = rng.integers(0, len(CONSONANTS), syllables)
        vowels = rng.integers(0, len(VOWEL_SIGNS), syllables)
        stem = "".join(CONSONANTS[c] + VOWEL_SIGNS[v] for c, v in zip(consonants, vowels))
        if stem not in taken:
            taken[stem] = None
            stems.append(stem)
    return stems


class Pools:
    """The shared pool and one own pool per label, drawn from one seed."""

    def __init__(self, seed: int, stopwords: list[str], suffixes: list[str]):
        rng = np.random.default_rng([seed, SPLIT_KEYS["pools"]])
        taken: dict[str, None] = dict.fromkeys(stopwords)
        self.shared = _make_stems(rng, SHARED_POOL, taken)
        self.own = {label: _make_stems(rng, OWN_POOL, taken) for label in LABELS}
        self.shared_cdf = _zipf_cdf(SHARED_POOL)
        self.own_cdf = _zipf_cdf(OWN_POOL)
        self.stopwords = stopwords
        self.suffixes = suffixes

    def document(self, rng: np.random.Generator, label: str) -> str:
        n_sentences = int(rng.integers(*SENTENCES_PER_DOC))
        lengths = rng.integers(*WORDS_PER_SENTENCE, n_sentences)
        n = int(lengths.sum())
        own = rng.random(n) < OWN_SHARE
        ranks = np.where(
            own,
            np.searchsorted(self.own_cdf, rng.random(n)),
            np.searchsorted(self.shared_cdf, rng.random(n)),
        )
        kind = rng.random(n)
        suffixed = rng.random(n) < SUFFIX_RATE
        punctuated = rng.random(n) < PUNCT_RATE
        picks = rng.integers(0, 1 << 30, (n, 3))
        ends = rng.integers(0, len(SENTENCE_ENDS), n_sentences)

        own_pool = self.own[label]
        words: list[str] = []
        for i in range(n):
            pick = picks[i]
            if kind[i] < STOPWORD_RATE:
                word = self.stopwords[pick[0] % len(self.stopwords)]
            elif kind[i] < STOPWORD_RATE + NUMBER_RATE:
                digits = "০১২৩৪৫৬৭৮৯" if pick[0] % 2 else "0123456789"
                word = "".join(digits[(pick[1] >> (4 * k)) % 10] for k in range(1 + pick[2] % 4))
            elif kind[i] < STOPWORD_RATE + NUMBER_RATE + LATIN_RATE:
                word = LATIN_WORDS[pick[0] % len(LATIN_WORDS)]
            else:
                word = own_pool[ranks[i]] if own[i] else self.shared[ranks[i]]
                if suffixed[i]:
                    word += self.suffixes[pick[1] % len(self.suffixes)]
            if punctuated[i]:
                word += PUNCTUATION[pick[2] % len(PUNCTUATION)]
            words.append(word)

        sentences = []
        start = 0
        for length, end in zip(lengths, ends):
            sentences.append(" ".join(words[start : start + length]) + SENTENCE_ENDS[end])
            start += length
        return " ".join(sentences)

    def split(self, seed: int, name: str, per_class: int) -> list[dict]:
        """`per_class` documents of every label, grouped by label."""
        rng = np.random.default_rng([seed, SPLIT_KEYS[name]])
        return [
            {"id": f"{name}-{label}-{i:04d}", "text": self.document(rng, label), "label": label}
            for label in LABELS
            for i in range(per_class)
        ]


def write_jsonl(records: list[dict], path: Path) -> None:
    """Write records as JSONL, the format ``doccat.corpus.load_jsonl`` reads."""
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")


def corpus_stats(records: list[dict]) -> dict:
    """Raw-text statistics of one split: docs, tokens, sentences, distinct terms, bytes."""
    tokens = sentences = distinct = size = 0
    for record in records:
        text = record["text"]
        words = text.split()
        tokens += len(words)
        sentences += sum(text.count(end) for end in ("।", "?", "!"))
        distinct += len(set(words))
        size += len(text.encode("utf-8"))
    return {
        "docs": len(records),
        "tokens": tokens,
        "sentences": sentences,
        "mean_distinct_terms": distinct / len(records),
        "bytes": size,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory for <split>.jsonl")
    names = [name for name in SPLIT_KEYS if name != "pools"]
    parser.add_argument("splits", nargs="+", metavar="SPLIT=PER_CLASS", help=f"splits among {names}")
    args = parser.parse_args(argv)
    splits = {}
    for spec in args.splits:
        name, _, per_class = spec.partition("=")
        if name not in names or not per_class.isdigit():
            parser.error(f"bad split {spec!r}")
        splits[name] = int(per_class)

    stopwords, suffixes = read_word_lists(DATA_DIR)
    pools = Pools(args.seed, stopwords, suffixes)
    args.out.mkdir(parents=True, exist_ok=True)
    stats = {}
    for name, per_class in splits.items():
        records = pools.split(args.seed, name, per_class)
        write_jsonl(records, args.out / f"{name}.jsonl")
        stats[name] = corpus_stats(records)
    (args.out / "stats.json").write_text(json.dumps(stats, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
