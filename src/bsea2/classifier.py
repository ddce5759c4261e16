"""Key-class analysis: per-K' attack planning and the 256-way partition.

For a candidate K' the combiner becomes f = f0 XOR mask(K'), and the
attacker works with g = f XOR x0 (the final XOR of R0's output folded in).
Every nonzero effective-spectrum entry chi_g(u), u != 0, is a noisy linear
relation between the keystream and the registers named by u's bits. A
divide-and-conquer schedule recovers register groups in stages; a mask
whose bits include already-recovered registers only brute-forces its
remaining ones. Stage cost is 2^(sum of target register lengths) and a
K' class is the max stage exponent of its cheapest schedule.

The planner enumerates all stage partitions and orderings of the four
registers exhaustively (15 partitions, <= 24 orderings each), so the
optimum is by exhaustion rather than heuristic. chi_g(0) != 0 never helps
recovery (it biases the keystream without referencing state) and is
surfaced as a distinguisher flag instead.
"""
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from . import boolfn
from .bits import hex_byte, hex_word
from .cipher import InstanceSpec
from .errors import Unattackable
from .plaintext import PlaintextModel, combine_bias

N_REGISTERS = 4


def mask_registers(u: int) -> frozenset:
    """Registers addressed by mask u: bit 3 -> R0, ..., bit 0 -> R3."""
    return frozenset(r for r in range(N_REGISTERS) if u & (1 << (3 - r)))


@dataclass(frozen=True)
class AttackStage:
    """One brute-force stage: recover ``targets`` jointly using ``mask``."""

    targets: frozenset
    mask: int
    exponent: int
    known: frozenset
    chi: int

    @property
    def complement(self) -> bool:
        """Whether the predicted relation is anti-correlated (chi < 0)."""
        return self.chi < 0


@dataclass(frozen=True)
class AttackPlan:
    """Ordered stages covering all four registers for one K' instance."""

    kprime: int
    stages: tuple
    max_exponent: int
    sum_cost: float
    distinguisher: bool

    @property
    def masks(self) -> tuple:
        return tuple(st.mask for st in self.stages)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1:]
        yield part + [{first}]


def _plan_from_spectrum(spec: InstanceSpec, kprime: int, gspec) -> AttackPlan:
    degrees = spec.degrees
    usable = {u: gspec[u] for u in range(1, 16) if gspec[u] != 0}
    covered = frozenset().union(*map(mask_registers, usable)) if usable else frozenset()
    missing = frozenset(range(N_REGISTERS)) - covered
    if missing:
        raise Unattackable(missing)

    best_key = None
    best_plan = None
    for part in _set_partitions(list(range(N_REGISTERS))):
        blocks = [frozenset(b) for b in part]
        for order in permutations(blocks):
            known = frozenset()
            stages = []
            feasible = True
            for block in order:
                mask = next((u for u in sorted(usable)
                             if mask_registers(u) - known == block), None)
                if mask is None:
                    feasible = False
                    break
                stages.append(AttackStage(
                    targets=block,
                    mask=mask,
                    exponent=sum(degrees[r] for r in block),
                    known=known,
                    chi=usable[mask],
                ))
                known |= block
            if not feasible:
                continue
            exps = [st.exponent for st in stages]
            key = (max(exps),
                   math.log2(sum(2 ** e for e in exps)),
                   len(stages),
                   tuple(st.mask for st in stages))
            if best_key is None or key < best_key:
                best_key = key
                best_plan = stages
    # covered == all registers guarantees at least the greedy ordering exists
    assert best_plan is not None
    return AttackPlan(
        kprime=kprime,
        stages=tuple(best_plan),
        max_exponent=best_key[0],
        sum_cost=best_key[1],
        distinguisher=gspec[0] != 0,
    )


def plan_attack(spec: InstanceSpec, kprime: int) -> AttackPlan:
    """Cheapest divide-and-conquer schedule for the given K' instance.

    Minimizes the max stage exponent; ties broken by total cost, then by
    fewer stages, then by the lexicographically smallest mask sequence.
    Raises Unattackable when some register appears in no usable mask.
    """
    f = boolfn.apply_key_mask(spec.f0, kprime)
    return _plan_from_spectrum(spec, kprime, boolfn.effective_spectrum(f))


@dataclass(frozen=True)
class KeyClassRow:
    label: str
    exponent: int | None      # None = unattackable
    kprimes: tuple
    example_kprime: int
    example_spectrum: tuple

    @property
    def count(self) -> int:
        return len(self.kprimes)

    @property
    def fraction(self) -> float:
        return self.count / 256.0


@dataclass(frozen=True)
class KeyClassReport:
    f0: int
    rows: tuple
    plans: dict
    diff_vs_paper: tuple | None

    def row_for(self, kprime: int) -> KeyClassRow:
        for row in self.rows:
            if kprime in row.kprimes:
                return row
        raise KeyError(kprime)


# Published reference class counts for the two documented table values of
# f0 (count per max exponent). The 0x953F reference is internally
# inconsistent (counts sum to 284, and 70 is not a subset sum of the
# register lengths); it is compared against, never matched by force.
REFERENCE_PARTITIONS = {
    0x93A0: {37: 152, 52: 24, 54: 64, 68: 16},
    0x953F: {37: 144, 52: 32, 54: 24, 60: 24, 66: 4, 68: 12, 70: 12, 97: 32},
}


def _diff_vs_reference(f0: int, by_exponent: dict):
    ref = REFERENCE_PARTITIONS.get(f0)
    if ref is None:
        return None
    rows = []
    for exp in sorted(set(ref) | set(k for k in by_exponent if k is not None)):
        ours = len(by_exponent.get(exp, ()))
        rows.append({"exponent": exp, "ours": ours,
                     "reference": ref.get(exp, 0),
                     "delta": ours - ref.get(exp, 0)})
    unatt = len(by_exponent.get(None, ()))
    if unatt:
        rows.append({"exponent": None, "ours": unatt, "reference": 0,
                     "delta": unatt})
    return tuple(rows)


@lru_cache(maxsize=8)
def _partition_cached(spec: InstanceSpec) -> KeyClassReport:
    by_exponent = {}
    plans = {}
    for kprime in range(256):
        try:
            plan = plan_attack(spec, kprime)
            plans[kprime] = plan
            by_exponent.setdefault(plan.max_exponent, []).append(kprime)
        except Unattackable:
            plans[kprime] = None
            by_exponent.setdefault(None, []).append(kprime)

    rows = []
    exps = sorted(e for e in by_exponent if e is not None)
    for i, exp in enumerate(exps):
        ks = tuple(sorted(by_exponent[exp]))
        example = ks[0]
        rows.append(KeyClassRow(
            label=f"C{i}",
            exponent=exp,
            kprimes=ks,
            example_kprime=example,
            example_spectrum=boolfn.walsh_transform(
                boolfn.apply_key_mask(spec.f0, example)),
        ))
    if None in by_exponent:
        ks = tuple(sorted(by_exponent[None]))
        rows.append(KeyClassRow(
            label="UNATTACKABLE",
            exponent=None,
            kprimes=ks,
            example_kprime=ks[0],
            example_spectrum=boolfn.walsh_transform(
                boolfn.apply_key_mask(spec.f0, ks[0])),
        ))
    assert sum(r.count for r in rows) == 256
    return KeyClassReport(
        f0=spec.f0,
        rows=tuple(rows),
        plans=plans,
        diff_vs_paper=_diff_vs_reference(spec.f0, by_exponent),
    )


def partition_keys(spec: InstanceSpec) -> KeyClassReport:
    """Classify all 256 K' values of the instance into attack classes."""
    return _partition_cached(spec)


def attackable_kprimes(spec: InstanceSpec) -> tuple:
    report = partition_keys(spec)
    return tuple(k for row in report.rows if row.exponent is not None
                 for k in row.kprimes)


def plan_to_dict(plan: AttackPlan, degrees) -> dict:
    return {
        "kprime": hex_byte(plan.kprime),
        "max_exponent": plan.max_exponent,
        "sum_cost_log2": round(plan.sum_cost, 4),
        "distinguisher": plan.distinguisher,
        "stages": [
            {
                "targets": sorted(st.targets),
                "mask": st.mask,
                "mask_bits": format(st.mask, "04b"),
                "exponent": st.exponent,
                "known": sorted(st.known),
                "chi": st.chi,
                "complement": st.complement,
            }
            for st in plan.stages
        ],
    }


def spectrum_report(spec: InstanceSpec, kprime: int,
                    model: PlaintextModel | None = None) -> dict:
    """Masked table, both spectra, usable masks with p/p', and the plan."""
    f = boolfn.apply_key_mask(spec.f0, kprime)
    walsh_f = boolfn.walsh_transform(f)
    walsh_g = boolfn.effective_spectrum(f)
    masks = []
    for u in range(1, 16):
        if walsh_g[u] == 0:
            continue
        p = boolfn.correlation_probability(walsh_g, u)
        entry = {
            "mask": u,
            "mask_bits": format(u, "04b"),
            "registers": sorted(mask_registers(u)),
            "chi": walsh_g[u],
            "p": p,
        }
        if model is not None:
            entry["p_prime"] = combine_bias(p, model.p0)
        masks.append(entry)
    try:
        plan = plan_to_dict(plan_attack(spec, kprime), spec.degrees)
        error = None
    except Unattackable as exc:
        plan = None
        error = {"name": "Unattackable",
                 "uncovered": list(exc.uncovered)}
    report = {
        "f0": hex_word(spec.f0),
        "kprime": hex_byte(kprime),
        "f": hex_word(f),
        "walsh_f": list(walsh_f),
        "walsh_g": list(walsh_g),
        "distinguisher": walsh_g[0] != 0,
        "usable_masks": masks,
        "plan": plan,
    }
    if model is not None:
        report["p0"] = model.p0
    if error is not None:
        report["error"] = error
    return report


def report_to_json_dict(report: KeyClassReport, spec: InstanceSpec) -> dict:
    data = {
        "f0": hex_word(report.f0),
        "spec_fingerprint": spec.fingerprint(),
        "rows": [
            {
                "class": row.label,
                "exponent": row.exponent,
                "complexity": (f"2^{row.exponent}"
                               if row.exponent is not None else None),
                "count": row.count,
                "fraction": row.fraction,
                "kprimes": [hex_byte(k) for k in row.kprimes],
                "example": {
                    "kprime": hex_byte(row.example_kprime),
                    "spectrum": list(row.example_spectrum),
                },
            }
            for row in report.rows
        ],
    }
    if report.diff_vs_paper is not None:
        data["diff_vs_paper"] = [dict(d) for d in report.diff_vs_paper]
        ref = REFERENCE_PARTITIONS[report.f0]
        data["reference_total"] = sum(ref.values())
        if data["reference_total"] != 256:
            data["reference_note"] = (
                f"reference counts sum to {data['reference_total']}, "
                "not 256; the published table is internally inconsistent")
    return data
