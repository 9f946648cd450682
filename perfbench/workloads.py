"""The four benchmark workloads: artloc CLI jobs and the answers they must give.

A job is one CLI command run in a fresh interpreter. Its pin is the
mathematical part of the report (class counts, verdicts, Betti numbers,
dimensions, Hilbert functions), never report bytes or class
representatives, which may legitimately change. README.md explains why each
workload was chosen and which layers it is expected to stress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

MONOMIAL64_RING = "perfbench/rings/monomial64.ring"  # relative to the checkout root

CORPUS_RINGS = (
    "complete_intersection",
    "dual_numbers",
    "example1",
    "goto",
    "hypersurface4",
    "pair",
    "stretched",
)

DIAGNOSE_VERDICTS = {
    "complete_intersection": "Nontrivial_StretchedGorenstein",
    "dual_numbers": "OnlyTrivial_Hypersurface",
    "example1": "Nontrivial_OrthogonalPair",
    "goto": "Nontrivial_GotoCondition",
    "hypersurface4": "OnlyTrivial_Hypersurface",
    "pair": "Nontrivial_OrthogonalPair",
    "stretched": "Nontrivial_OrthogonalPair",
}

GORENSTEIN64_HILBERT = [1, 3, 6, 10, 12, 12, 10, 6, 3, 1]
MONOMIAL64_HILBERT = [1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3, 2, 1]


@dataclass(frozen=True)
class Job:
    """One CLI command, the view of its JSON results that is pinned, and the pin.

    `group` names the per-job wall-time metric of the traced run; jobs that
    share a group (the seven corpus diagnoses) are summed into it.
    """

    name: str
    argv: tuple[str, ...]
    view: Callable[[dict], Any]
    pin: Any
    code: int = 0
    group: str = ""

    @property
    def metric_group(self) -> str:
        return self.group or self.name


def _levels(r: dict) -> dict:
    return {"counts": [lv["count"] for lv in r["levels"]], "budget_exceeded": r["budget_exceeded"]}


def _closure(r: dict) -> dict:
    return {"contains_k": r["contains_k"], "census": [c["count"] for c in r["census"]]}


def _betti(r: dict) -> list:
    return r["betti"]


def _dim(r: dict) -> int:
    return r["dim"]


def _length_hilbert(r: dict) -> dict:
    return {"length": r["length"], "hilbert": r["hilbert"]}


def _passed_failed(r: dict) -> dict:
    return {"passed": r["passed"], "failed": r["failed"]}


def _verdict(r: dict) -> str:
    return r["verdict"]


def _all_pass(r: dict) -> bool:
    return r["all_pass"]


def _ring(name: str) -> str:
    return f"rings/{name}.ring"


def filt_census_jobs() -> list[Job]:
    return [
        Job("filt-example1", ("filt", _ring("example1"), "--depth", "3"), _levels,
            {"counts": [1, 8, 134], "budget_exceeded": False}),
        Job("filt-goto", ("filt", _ring("goto"), "--depth", "3"), _levels,
            {"counts": [1, 4, 13], "budget_exceeded": False}),
        Job("closure-stretched", ("closure", _ring("stretched"), "--depth", "3"), _closure,
            {"contains_k": False, "census": [1, 5, 31]}),
    ]


def resolve_tor_jobs() -> list[Job]:
    return [
        Job("resolve-example1", ("resolve", _ring("example1"), "--module", "k", "--steps", "5"),
            _betti, [1, 4, 15, 56, 209, 780]),
        Job("tor-stretched", ("tor", _ring("stretched"), "--left", "k", "--right", "k", "--i", "5"),
            _dim, 144),
    ]


def ring_load_jobs(gorenstein_ring: str) -> list[Job]:
    """`gorenstein_ring` is the seeded draw (see `gorenstein_candidate`)."""
    return [
        Job("analyze-monomial64", ("analyze", MONOMIAL64_RING),
            _length_hilbert, {"length": 64, "hilbert": MONOMIAL64_HILBERT}),
        Job("analyze-gorenstein64", ("analyze", gorenstein_ring),
            _length_hilbert, {"length": 64, "hilbert": GORENSTEIN64_HILBERT}),
    ]


def paper_corpus_jobs() -> list[Job]:
    jobs = [Job("verify-paper", ("verify-paper",), _passed_failed, {"passed": 20, "failed": 0})]
    # diagnose only on the short corpus rings: scan_bounded_betti walks
    # p^(d-1) coordinate tuples, which explodes on a length-64 ring
    for ring in CORPUS_RINGS:
        jobs.append(Job(f"diagnose-{ring}", ("diagnose", _ring(ring), "--depth", "2"),
                        _verdict, DIAGNOSE_VERDICTS[ring], group="diagnose-corpus"))
    jobs += [
        Job("matrix-check-dual", ("matrix-check", _ring("dual_numbers"), "--element", "x",
                                  "--upper", "1"), _all_pass, True),
        Job("ext1-goto", ("ext1", _ring("goto"), "--left", "k", "--right", "R"), _dim, 3),
        Job("tor-example1", ("tor", _ring("example1"), "--left", "R/(x)", "--right", "R/(z)",
                             "--i", "3"), _dim, 2),
    ]
    return jobs


WORKLOADS = ("filt-census", "resolve-tor", "ring-load", "paper-corpus")

WHY = {
    "filt-census": "filt/closure to depth 3 on short rings: thousands of tiny eliminations in "
                   "is_isomorphic and hom_dim; ring load is negligible; one p=3 job",
    "resolve-tor": "a few huge matrices: Betti 780 resolution and Tor_5, bound by acting_on and "
                   "minimal_generators; no enumeration or isomorphism tests",
    "ring-load": "analyze on two length-64 rings (monomial p=2, seeded Gorenstein p=3): Groebner "
                 "basis, structure table and check_axioms dominate; modules stay idle",
    "paper-corpus": "many short commands (verify-paper, diagnose on 7 rings, matrix-check, ext1, "
                    "tor): import and per-command ring loading are half the wall time",
}


def workload_jobs(name: str, gorenstein_ring: str) -> list[Job]:
    if name == "filt-census":
        return filt_census_jobs()
    if name == "resolve-tor":
        return resolve_tor_jobs()
    if name == "ring-load":
        return ring_load_jobs(gorenstein_ring)
    if name == "paper-corpus":
        return paper_corpus_jobs()
    raise ValueError(f"unknown workload {name!r}")


def smoke_jobs(gorenstein_ring: str) -> dict[str, list[Job]]:
    """One small job per workload, for the benchmark's self-check."""
    return {
        "filt-census": [Job("filt-goto", ("filt", _ring("goto"), "--depth", "2"), _levels,
                            {"counts": [1, 4], "budget_exceeded": False})],
        "resolve-tor": [Job("resolve-example1", ("resolve", _ring("example1"), "--module", "k",
                                                 "--steps", "3"), _betti, [1, 4, 15, 56])],
        "ring-load": ring_load_jobs(gorenstein_ring)[:1],
        "paper-corpus": [j for j in paper_corpus_jobs() if j.name == "ext1-goto"],
    }


def every_job_group() -> list[str]:
    """Per-job metric groups of all workloads, in a fixed order."""
    groups: list[str] = []
    for name in WORKLOADS:
        for job in workload_jobs(name, ""):
            if job.metric_group not in groups:
                groups.append(job.metric_group)
    return groups


# -- seeded input for ring-load ------------------------------------------------------------

# The three quartics are a*x^4 + b*y^3z, c*y^4 + d*z^3x, e*z^4 + f*x^3y over F_3.
# Candidate k of seed s takes its six unit coefficients from the bits of
# (s + k) mod 64 (bit clear: 1, bit set: 2), so seed 0 gives the ring with
# every coefficient 1. Draws whose ideal is not m-primary, or whose length or
# Hilbert function differ from the pins, are rejected before timing starts.
QUARTIC_TERMS = (("x^4", "y^3z"), ("y^4", "z^3x"), ("z^4", "x^3y"))


def gorenstein_candidate(seed: int, k: int) -> tuple[int, ...]:
    bits = (seed + k) % 64
    return tuple(2 if bits >> i & 1 else 1 for i in range(6))


def gorenstein_ring_text(coeffs: tuple[int, ...], seed: int) -> str:
    def term(c: int, mono: str) -> str:
        return mono if c == 1 else f"{c}{mono}"

    lines = [
        f"# seeded ring-load draw (seed {seed}): three quartics over F_3, coefficients {coeffs}",
        "p=3 vars=x,y,z",
    ]
    for j, (lead, tail) in enumerate(QUARTIC_TERMS):
        lines.append(f"{term(coeffs[2 * j], lead)}+{term(coeffs[2 * j + 1], tail)}")
    return "\n".join(lines) + "\n"
