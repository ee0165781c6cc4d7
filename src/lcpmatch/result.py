"""Match results shared by the voting algorithms and the dihedral matcher."""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import FloatArray, RigidMotion, nearest_matches


@dataclass(frozen=True, eq=False)
class MatchResult:
    """Winning motion plus its verified correspondence certificate.

    `matched` lists each matched q with its nearest target (one entry per q;
    targets may repeat), `dedup_matched` is the injective resolution, greedy
    by smallest residual. `votes` is the raw vote count the winner collected
    in its voting space, which for pair-based voting counts the base pair
    itself. For the dihedral matchers, `base_pair` is ((a, b), (i, j)) and
    `angle` is the turn about the base axis in the two axis frames (see
    da._motions), at the middle of the peak interval of the winning base.
    """

    motion: RigidMotion
    matched: tuple[tuple[int, int], ...]
    dedup_matched: tuple[tuple[int, int], ...]
    max_residual: float
    votes: int
    radius: float
    base_pair: tuple[tuple[int, int], tuple[int, int]] | None = None
    angle: float | None = None

    @property
    def size(self) -> int:
        return len(self.matched)

    @property
    def dedup_size(self) -> int:
        return len(self.dedup_matched)

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "raw_size": self.votes,
            "dedup_size": self.dedup_size,
            "max_residual": self.max_residual,
            "radius": self.radius,
            "motion": {
                "rotation": [float(x) for x in self.motion.rotation.ravel()],
                "translation": [float(x) for x in self.motion.translation],
            },
            "matched": [[q, p] for q, p in self.matched],
            "dedup_matched": [[q, p] for q, p in self.dedup_matched],
            "base_pair": None
            if self.base_pair is None
            else [list(self.base_pair[0]), list(self.base_pair[1])],
            "angle": self.angle,
        }


def greedy_injective(pairs: list[tuple[int, int]], residuals: FloatArray) -> tuple[tuple[int, int], ...]:
    """Injective sub-matching chosen greedily by smallest residual."""
    order = sorted(range(len(pairs)), key=lambda i: (residuals[i], pairs[i]))
    used_p: set[int] = set()
    kept = []
    for i in order:
        q, p = pairs[i]
        if p in used_p:
            continue
        used_p.add(p)
        kept.append((q, p))
    kept.sort()
    return tuple(kept)


def certify(pairs: list[tuple[int, int]], residuals: FloatArray):
    """(matched, dedup_matched, max_residual) of the nearest_matches output
    (pairs, residuals); max_residual is 0.0 when nothing matched."""
    max_res = float(residuals.max()) if len(residuals) else 0.0
    return tuple(pairs), greedy_injective(pairs, residuals), max_res


def build_match_result(
    P, Q, motion: RigidMotion, radius: float, votes: int, base_pair=None
) -> MatchResult:
    """Verify `motion` against P at `radius` and package the certificate."""
    certificate = certify(*nearest_matches(P, Q, motion, radius))
    return MatchResult(motion, *certificate, votes, radius, base_pair)


__all__ = ["MatchResult", "build_match_result", "certify", "greedy_injective"]
