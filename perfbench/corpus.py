"""Deterministic NSL-KDD-format corpus generator for the benchmark.

Writes 43-field CSV lines (41 features, attack name, difficulty score) with
class-conditional profiles, generated column-wise with numpy so that a
KDDTrain+-sized file takes seconds, not minutes. Two families:

- ``easy``: well-separated class profiles, no label noise;
- ``noisy``: a share of rows draws its features from another class's
  profile (class-profile overlap) and a share carries another class's
  attack name (label noise), so the swarm has real trade-offs to search.

The same (family, rows, seed) always gives the same bytes. This module is
independent of the test suite's synthetic corpus on purpose: acceptance
thresholds depend on that one, and it must stay free to change.

Usage: python3 perfbench/corpus.py --family noisy --rows 1500 --seed 1 --out FILE
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

CLASSES = ("Normal", "DoS", "Probe", "U2R", "R2L")
CLASS_WEIGHTS = (0.53, 0.36, 0.09, 0.005, 0.015)  # close to KDDTrain+

ATTACKS = (
    ("normal",),
    ("neptune", "smurf", "back", "teardrop", "pod"),
    ("satan", "ipsweep", "portsweep", "nmap"),
    ("buffer_overflow", "rootkit", "loadmodule", "perl"),
    ("guess_passwd", "warezclient", "warezmaster", "ftp_write", "imap"),
)

# name -> (overlap share, label-noise share)
FAMILIES = {"easy": (0.0, 0.0), "noisy": (0.10, 0.05)}

# Per-class vocabularies and weights for protocol_type, service, flag.
PROTOCOLS = ("tcp", "udp", "icmp")
SERVICES = ("http", "smtp", "domain_u", "ftp_data", "private", "ecr_i",
            "eco_i", "other", "telnet", "ftp", "pop_3")
FLAGS = ("SF", "S0", "REJ", "RSTR", "RSTO")
_PROTOCOL_P = ((0.75, 0.25, 0.0), (0.55, 0.0, 0.45), (0.45, 0.15, 0.40),
               (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
_SERVICE_P = (
    (0.45, 0.2, 0.2, 0.15, 0, 0, 0, 0, 0, 0, 0),
    (0.1, 0, 0, 0, 0.5, 0.4, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0.3, 0, 0.4, 0.3, 0, 0, 0),
    (0.2, 0, 0, 0, 0, 0, 0, 0, 0.5, 0.3, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0.3, 0.5, 0.2),
)
_FLAG_P = ((1.0, 0, 0, 0, 0), (0.1, 0.7, 0.2, 0, 0), (0.4, 0, 0.3, 0.3, 0),
           (1.0, 0, 0, 0, 0), (0.8, 0, 0, 0, 0.2))

# Count-valued columns: column index -> mean per class.
_COUNTS = {
    0: (4, 0, 1, 110, 55),          # duration
    4: (240, 850, 14, 2400, 330),   # src_bytes
    5: (1700, 12, 9, 5200, 260),    # dst_bytes
    9: (0.2, 0, 0, 16, 4),          # hot
    10: (0, 0, 0, 1, 5),            # num_failed_logins
    22: (9, 290, 22, 2, 3),         # count
    23: (9, 270, 4, 2, 3),          # srv_count
    31: (130, 250, 240, 9, 28),     # dst_host_count
    32: (105, 200, 190, 7, 22),     # dst_host_srv_count
}
# Rate-valued columns in [0, 1]: column index -> mean per class.
_RATES = {
    24: (0.02, 0.93, 0.22, 0.0, 0.0), 25: (0.02, 0.93, 0.2, 0.0, 0.0),
    26: (0.03, 0.03, 0.72, 0.0, 0.15), 27: (0.03, 0.03, 0.7, 0.0, 0.15),
    28: (0.95, 0.98, 0.1, 1.0, 1.0), 29: (0.03, 0.03, 0.78, 0.0, 0.0),
    30: (0.1, 0.02, 0.3, 0.05, 0.1), 33: (0.9, 0.98, 0.06, 0.93, 0.6),
    34: (0.1, 0.02, 0.9, 0.07, 0.4), 35: (0.2, 0.05, 0.6, 0.3, 0.35),
    36: (0.05, 0.0, 0.2, 0.05, 0.05), 37: (0.02, 0.94, 0.2, 0.01, 0.01),
    38: (0.02, 0.94, 0.2, 0.01, 0.01), 39: (0.02, 0.03, 0.78, 0.01, 0.1),
    40: (0.02, 0.03, 0.78, 0.01, 0.1),
}
# 0/1 columns: column index -> probability of 1 per class.
_FLAGS01 = {
    6: (0.0, 0.002, 0.0, 0.0, 0.0), 7: (0.0, 0.04, 0.0, 0.0, 0.0),
    8: (0.0, 0.0, 0.0, 0.05, 0.01), 11: (0.75, 0.05, 0.02, 0.95, 0.9),
    12: (0.05, 0.0, 0.0, 0.5, 0.2), 13: (0.0, 0.0, 0.0, 0.6, 0.02),
    14: (0.0, 0.0, 0.0, 0.1, 0.0), 15: (0.02, 0.0, 0.0, 0.4, 0.05),
    16: (0.02, 0.0, 0.0, 0.5, 0.1), 17: (0.0, 0.0, 0.0, 0.3, 0.0),
    18: (0.02, 0.0, 0.0, 0.1, 0.05), 21: (0.01, 0.0, 0.0, 0.0, 0.3),
}
# Columns 19 (num_outbound_cmds) and 20 (is_host_login) stay constant 0,
# as they are in KDDTrain+, which exercises degenerate normalization.


def _categorical(rng, profile, table, names):
    probs = np.asarray(table, dtype=np.float64)
    cumulative = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
    draws = rng.random(profile.shape[0])
    codes = (draws[:, None] > cumulative[profile]).sum(axis=1)
    return np.asarray(names)[np.minimum(codes, len(names) - 1)]


def make_corpus(n: int, seed: int, family: str) -> str:
    """Return ``n`` CSV lines of the given family, ending in a newline."""
    overlap, noise = FAMILIES[family]
    rng = np.random.default_rng([seed, n, list(FAMILIES).index(family)])
    weights = np.asarray(CLASS_WEIGHTS)
    label = rng.choice(len(CLASSES), size=n, p=weights / weights.sum())
    # Rows in the overlap share look like a uniformly drawn other class.
    profile = label.copy()
    shifted = rng.random(n) < overlap
    profile[shifted] = (label[shifted] + rng.integers(1, len(CLASSES), shifted.sum())) % len(CLASSES)
    # Rows in the noise share are named after a uniformly drawn other class.
    noisy = rng.random(n) < noise
    label[noisy] = (label[noisy] + rng.integers(1, len(CLASSES), noisy.sum())) % len(CLASSES)

    columns: list[np.ndarray] = [None] * 41  # type: ignore[list-item]
    zeros = np.full(n, "0", dtype=object)
    columns[19] = columns[20] = zeros
    columns[1] = _categorical(rng, profile, _PROTOCOL_P, PROTOCOLS)
    columns[2] = _categorical(rng, profile, _SERVICE_P, SERVICES)
    columns[3] = _categorical(rng, profile, _FLAG_P, FLAGS)
    for col, means in _COUNTS.items():
        mean = np.asarray(means, dtype=np.float64)[profile]
        values = np.rint(mean * rng.lognormal(0.0, 0.3, n)).astype(np.int64)
        columns[col] = values.astype(str)
    for col, means in _RATES.items():
        mean = np.asarray(means, dtype=np.float64)[profile]
        values = np.clip(mean + rng.normal(0.0, 0.06, n), 0.0, 1.0)
        columns[col] = np.char.mod("%.2f", values)
    for col, probs in _FLAGS01.items():
        p = np.asarray(probs, dtype=np.float64)[profile]
        columns[col] = (rng.random(n) < p).astype(np.int64).astype(str)

    pick = rng.random(n)
    attack = np.array(
        [ATTACKS[c][int(u * len(ATTACKS[c]))] for c, u in zip(label.tolist(), pick.tolist())],
        dtype=object,
    )
    difficulty = rng.integers(0, 22, n).astype(str)
    fields = [c.tolist() for c in columns] + [attack.tolist(), difficulty.tolist()]
    return "\n".join(",".join(row) for row in zip(*fields)) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--family", choices=sorted(FAMILIES), required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.rows < 1:
        parser.error("--rows must be positive")
    args.out.write_text(make_corpus(args.rows, args.seed, args.family), encoding="utf-8")


if __name__ == "__main__":
    main()
