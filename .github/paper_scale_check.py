"""Check a `doccat benchmark` output directory written at the paper's scale.

Usage: python paper_scale_check.py OUT_DIR

Fails unless every class of the two SVM model files converged with a
relative duality gap below GAP_BOUND, and unless comparison.tsv holds all
six methods, each with a macro F1 at or above F1_FLOOR. Prints the largest
gap of each SVM and each method's F1.
"""

import csv
import json
import sys
from pathlib import Path

GAP_BOUND = 1e-2
# The lowest macro F1 of the six methods on corpusgen seed 5
# train=2400 test=250 was 0.975 (CHI-SQUARE+SGD).
F1_FLOOR = 0.95
SVM_MODELS = ("model_CHI_SQUARE_SVM.json", "model_TFIDF_SVM.json")


def main(out_dir: Path) -> int:
    failures = []
    for name in SVM_MODELS:
        fit = json.loads((out_dir / name).read_text(encoding="utf-8"))["fit"]
        for label, info in fit.items():
            if not info["converged"]:
                failures.append(f"{name}: class {label!r} did not converge")
            if not info["gap"] < GAP_BOUND:
                failures.append(f"{name}: class {label!r} has gap {info['gap']:.3e}")
        print(f"{name}: {len(fit)} classes, largest gap "
              f"{max(info['gap'] for info in fit.values()):.3e}")
    with open(out_dir / "comparison.tsv", encoding="utf-8", newline="") as table:
        rows = list(csv.DictReader(table, delimiter="\t"))
    if len(rows) != 6:
        failures.append(f"comparison.tsv holds {len(rows)} methods, not 6")
    for row in rows:
        print(f"{row['method']}: f1 {row['f1']}")
        if not float(row["f1"]) >= F1_FLOOR:
            failures.append(f"{row['method']}: f1 {row['f1']} below {F1_FLOOR}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
