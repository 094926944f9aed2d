"""Seeded benchmark inputs and the check of their mix.

Each workload is a CLI subcommand plus the JSON document the CLI reads.  The
same ``(workload, seed, scale)`` always yields the same document.  The mix
(share of instances with g > 1, with h > 1 and k > 1, the rank split and the
bit range of the sizes) is computed here from the gcd recipes, independently
of the package, and checked against what the workload is meant to exercise.

Why each workload was chosen is in ``WHY``; ``BENCHMARK.json`` repeats it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import product
from math import gcd

WHY = {
    "verify-r34": "acceptance-gate traffic: rank-3/4 pipeline against closed form with h, k > 1, "
    "so CoprimeTorsion, CoprimeOrders and CMapSplitting all run; snf entries stay small",
    "sweep-r4-grid": "the fixed ROADMAP grid T D D T, sizes 2..6: the process pool and the cheap "
    "g = 1 path; a change that only helps nontrivial groups should not move it",
    "compute-r56": "rank 5/6 with g > 1 and sizes up to 20 bits: unknown-differential, "
    "unresolved extensions, up to 150 certificates per instance and snf bigint growth",
}
NAMES = tuple(WHY)
SCALES = ("full", "tiny")

# Odd primes that h and k are built from; for verify-r34 every product p*q
# stays below 100 so that sizes <= 200 still hit each residue class.
_PRIMES = (3, 5, 7, 11, 13)
_VERIFY_MAX_SIZE = 200
_COMPUTE_MAX_BITS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # CLI arguments, subcommand first; --jobs is added per run
    document: dict  # what the CLI reads from --input
    instances: tuple[dict, ...]  # one-instance spec documents, in CLI output order
    mix: dict


def spec_key(spec: dict) -> str:
    """Canonical text of a spec document, e.g. ``T2 D8 D23 T2/swap``."""
    colors = " ".join(f"{c['kind']}{c['size']}" for c in spec["colors"])
    return f"{colors}/{spec['involution']}"


def digest(line: str) -> str:
    """Short digest of one instance's output line."""
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def invariants(spec: dict) -> tuple[int, int, int]:
    """(g, h, k) from the gcd recipes on the alphabet sizes."""
    ns = [c["size"] for c in spec["colors"] if c["kind"] == "T"]
    ms = [c["size"] for c in spec["colors"] if c["kind"] == "D"]
    loops = [1 - 2 * m for m in ms]
    g_terms = [1 - 4 * n * n for n in ns]
    g_terms += [1 - 4 * a * b for i, a in enumerate(ns) for b in ns[i + 1 :]]
    return (
        _gcd_all(g_terms + loops),
        _gcd_all([1 - 2 * n for n in ns] + loops),
        _gcd_all([1 + 2 * n for n in ns] + loops),
    )


def _gcd_all(values: list[int]) -> int:
    out = 0
    for v in values:
        out = gcd(out, v)
    return out


def _spec(kinds: str, sizes: list[int], involution: str) -> dict:
    return {
        "colors": [{"kind": k, "size": s} for k, s in zip(kinds, sizes)],
        "involution": involution,
    }


def _patterns(rank: int) -> list[str]:
    """Every D/T word of this rank with at least one T."""
    return ["".join(w) for w in product("DT", repeat=rank) if "T" in w]


def _residues(kinds: str, h_prime: int, k_prime: int) -> tuple[int, list[int]]:
    """Modulus h_prime * k_prime and, per color, the residue its size must have.

    With n = 1/2 mod h_prime and n = -1/2 mod k_prime for crossing colors and
    m = 1/2 mod both for loop colors, h_prime divides h and k_prime divides k.
    A prime given as 1 is left free.
    """
    modulus = h_prime * k_prime
    t = next(x for x in range(modulus) if (1 - 2 * x) % h_prime == 0 and (1 + 2 * x) % k_prime == 0)
    d = next(x for x in range(modulus) if (1 - 2 * x) % modulus == 0)
    return modulus, [t if kind == "T" else d for kind in kinds]


def _draw(rng: random.Random, modulus: int, residue: int, lo: int, hi: int) -> int:
    """A size in [lo, hi] congruent to residue mod modulus (lo >= 2)."""
    first = lo + (residue - lo) % modulus
    if first > hi:
        raise ValueError("empty residue class")
    return first + modulus * rng.randrange((hi - first) // modulus + 1)


def _prime_pair(rng: random.Random, max_product: int) -> tuple[int, int]:
    """Distinct primes p, q with p * q <= max_product."""
    while True:
        p, q = rng.sample(_PRIMES, 2)
        if p * q <= max_product:
            return p, q


# --- verify-r34 -------------------------------------------------------------

# per D/T pattern, trivial/swap pairs by stratum: h and k both forced, only h,
# only k, and sizes drawn freely from 2..200
_VERIFY_STRATA = {"full": ("hk",) * 34 + ("h",) * 4 + ("k",) * 4 + ("free",) * 4, "tiny": ("hk",)}


def _verify(rng: random.Random, scale: str) -> list[dict]:
    pairs = []
    for rank in (3, 4):
        for kinds in _patterns(rank):
            for stratum in _VERIFY_STRATA[scale]:
                if stratum == "free":
                    sizes = [rng.randint(2, _VERIFY_MAX_SIZE) for _ in kinds]
                else:
                    p, q = _prime_pair(rng, 100)
                    hp = p if stratum in ("hk", "h") else 1
                    kp = q if stratum in ("hk", "k") else 1
                    modulus, residues = _residues(kinds, hp, kp)
                    sizes = [_draw(rng, modulus, x, 2, _VERIFY_MAX_SIZE) for x in residues]
                pairs.append([_spec(kinds, sizes, inv) for inv in ("trivial", "swap")])
    rng.shuffle(pairs)
    return [spec for pair in pairs for spec in pair]


# --- sweep-r4-grid ----------------------------------------------------------


def _sweep_document(scale: str) -> dict:
    hi = 6 if scale == "full" else 3
    return {
        "colors": [{"kind": k, "size": [2, hi]} for k in "TDDT"],
        "involution": "both",
    }


def _sweep_grid(document: dict) -> list[dict]:
    """The grid in the CLI's own order: kinds, then sizes, then involution."""
    kinds = "".join(c["kind"] for c in document["colors"])
    ranges = [range(c["size"][0], c["size"][1] + 1) for c in document["colors"]]
    return [
        _spec(kinds, list(sizes), inv)
        for sizes in product(*ranges)
        for inv in ("swap", "trivial")
    ]


# --- compute-r56 ------------------------------------------------------------

# per (rank, involution): which of h, k are forced > 1, cycled; g > 1 always
_COMPUTE_GKINDS = ("hk", "h", "hk", "k")
_COMPUTE_PER_CELL = {"full": 72, "tiny": 4}


def _compute(rng: random.Random, scale: str) -> list[dict]:
    out = []
    per_cell = _COMPUTE_PER_CELL[scale]
    max_bits = _COMPUTE_MAX_BITS if scale == "full" else 8
    for rank in (5, 6):
        patterns = _patterns(rank)
        for inv in ("trivial", "swap"):
            for i in range(per_cell):
                gkind = _COMPUTE_GKINDS[i % len(_COMPUTE_GKINDS)]
                # bit lengths spread evenly over 3..max_bits, jittered
                bits = 3 + int((max_bits - 2) * (i + rng.random()) / per_cell)
                p, q = rng.sample(_PRIMES, 2)
                hp = p if gkind in ("hk", "h") else 1
                kp = q if gkind in ("hk", "k") else 1
                kinds = rng.choice(patterns)
                modulus, residues = _residues(kinds, hp, kp)
                lo, hi = 1 << (bits - 1), (1 << bits) - 1
                sizes = [_draw(rng, modulus, x, lo, max(hi, lo + modulus)) for x in residues]
                out.append(_spec(kinds, sizes, inv))
    rng.shuffle(out)
    return out


# --- assembly and mix check -------------------------------------------------


def mix_of(instances: list[dict]) -> dict:
    n = len(instances)
    inv = [invariants(s) for s in instances]
    bits = [c["size"].bit_length() for s in instances for c in s["colors"]]
    ranks: dict[str, int] = {}
    for s in instances:
        key = str(len(s["colors"]))
        ranks[key] = ranks.get(key, 0) + 1
    return {
        "instances": n,
        "g_gt_1": sum(g > 1 for g, _, _ in inv) / n,
        "h_and_k_gt_1": sum(h > 1 and k > 1 for _, h, k in inv) / n,
        "h_gt_1": sum(h > 1 for _, h, _ in inv) / n,
        "k_gt_1": sum(k > 1 for _, _, k in inv) / n,
        "ranks": dict(sorted(ranks.items())),
        "size_bits": [min(bits), max(bits)],
        "patterns": len({"".join(c["kind"] for c in s["colors"]) for s in instances}),
    }


class MixError(RuntimeError):
    """The generated inputs do not have the mix the workload is meant to have."""


def _check_mix(name: str, scale: str, mix: dict) -> None:
    full = scale == "full"
    if name == "verify-r34":
        want = {
            "rank 3 and 4 only": set(mix["ranks"]) == {"3", "4"},
            "every D/T pattern with a T": mix["patterns"] == 7 + 15,
            "h > 1 and k > 1 for most": mix["h_and_k_gt_1"] >= 0.6,
            "sizes <= 200": mix["size_bits"][1] <= 8,
            "about 2000 instances": not full or 1900 <= mix["instances"] <= 2100,
        }
    elif name == "sweep-r4-grid":
        want = {
            "rank 4 only": set(mix["ranks"]) == {"4"},
            "5^4 sizes x 2 involutions": not full or mix["instances"] == 1250,
            "g = 1 for almost all": not full or mix["g_gt_1"] < 0.1,
        }
    else:
        want = {
            "rank 5 and 6 only": set(mix["ranks"]) == {"5", "6"},
            "g > 1 everywhere": mix["g_gt_1"] == 1.0,
            "h > 1 and k > 1 both occur": mix["h_and_k_gt_1"] > 0,
            "h = 1 and k = 1 also occur": mix["h_gt_1"] < 1 and mix["k_gt_1"] < 1,
            "at least 100 instances": not full or mix["instances"] >= 100,
            "sizes up to about 20 bits": not full or 18 <= mix["size_bits"][1] <= 21,
        }
    failed = [what for what, ok in want.items() if not ok]
    if failed:
        raise MixError(f"{name}: generated mix misses {failed}: {mix}")


def generate(name: str, seed: int, scale: str = "full") -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    rng = random.Random(f"{name}:{seed}")
    if name == "verify-r34":
        instances = _verify(rng, scale)
        document = {"instances": instances}
        args = ("verify", "--format", "structured")
    elif name == "sweep-r4-grid":
        # the grid is fixed; the seed changes nothing here
        document = _sweep_document(scale)
        instances = _sweep_grid(document)
        args = ("sweep",)
    else:
        instances = _compute(rng, scale)
        document = {"instances": instances}
        args = ("compute", "--max-rank", "6", "--format", "structured")
    mix = mix_of(instances)
    _check_mix(name, scale, mix)
    return Workload(name, args, document, tuple(instances), mix)
