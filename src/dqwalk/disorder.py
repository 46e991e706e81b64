"""Binary phase-disorder maps.

A map assigns an extra phase of 0 or pi to every (step, position) cell of a
walk of n_steps steps on the lattice -n_steps..n_steps.  Only the pi cells are
stored (as a boolean mask of shape (n_steps, 2*n_steps + 1); row t-1 drives
step t).  Static maps draw a single row, which drives every step: their mask
is a read-only broadcast view of that one row.  Dynamic maps draw every row
independently; kind "none" is the clean walk.

Two sampling semantics are supported:

  bernoulli-uniform   each cell is selected with probability p, and a selected
                      cell is set to pi with probability 1/2 (so the expected
                      pi fraction is p/2).  This is the default.
  exact-pi-fraction   exactly floor(p*N) cells are pi, chosen uniformly
                      without replacement; N counts the independently drawn
                      cells (one row for static maps, the whole table for
                      dynamic ones).

All sampling is driven by numpy's default_rng seeded with the map seed, so a
(kind, p, n_steps, semantics, seed) tuple reproduces the identical map on any
platform.

At p = 1 every cell is selected, so bernoulli-uniform skips the selection
draw: `Generator.random` takes one 64-bit PCG64 output per float64, and
advancing the bit generator by the number of cells leaves it where that draw
would (O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation", HMC-CS-2014-0905).  The masks
are the same bits as the plain draw's.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

KINDS = ("none", "static", "dynamic")
SEMANTICS = ("bernoulli-uniform", "exact-pi-fraction")


@dataclass(frozen=True, eq=False)
class PhaseMap:
    kind: str
    p: float
    n_steps: int
    semantics: str
    seed: int
    pi_mask: np.ndarray = field(repr=False)

    def row(self, step_index):
        """Boolean pi-cells for step step_index (1-based)."""
        if not 1 <= step_index <= self.n_steps:
            raise ValueError(
                f"step index {step_index} outside 1..{self.n_steps}"
            )
        return self.pi_mask[step_index - 1]

    def step_signs(self, step_index, t_max):
        """Multiplicative signs e^{i*dphi} (+1 or -1) for step step_index,
        aligned to a state lattice of half-width t_max.

        Positions beyond the map's own lattice carry no disorder; they can
        only be reached by walkers prepared away from the origin.
        """
        row = self.row(step_index)
        signs = np.ones(2 * t_max + 1)
        r = min(self.n_steps, t_max)
        c_map, c_st = self.n_steps, t_max
        signs[c_st - r : c_st + r + 1] = 1.0 - 2.0 * row[c_map - r : c_map + r + 1]
        return signs


@dataclass(frozen=True, eq=False)
class MapStack:
    """The disorder of B walker rows at one phi, laid out once for the
    light-cone cells of one ensemble kernel call.

    `ensemble._map_stacks` builds it once per kernel call, for walkers
    that leave `origin` and take up to n_steps steps, with the row axis
    innermost in memory like the call's (coin, slot, row) cells
    (`states.ConeStack`).  Step t's phase acts on the s + 1 sites origin -
    s + 2k, k = 0..s, of the light cone s = t - 1 + lag steps from origin:
    the input's for lag 0 (phase-first) and the output's for lag 1
    (phase-last).  Exactly one of two layouts is given:

      pi     static maps and kind "none": bool (2*t_max + 1, B), row b's pi
             cell at each site -t_max..t_max of the lattice, read by every
             step.
      cones  dynamic maps: bool (n_steps, n_steps + 1, B).  cones[t-1, k] is
             row b's pi cell of step t at site origin - s + 2k.

    Sites beyond a map's own lattice carry no disorder, as in
    `PhaseMap.step_signs`.

    The stack forms e^{i phi} * (+1 + 0j) and e^{i phi} * (-1 + 0j) once
    and selects between them by the pi cells, so every phase factor has
    the bits of e^{i phi} times `PhaseMap.step_signs`, in storage the
    stack owns: a kernel call's step loop allocates none.  A static stack
    selects once, across the lattice, with the even and the odd sites
    apart; a dynamic one selects each step's cone into one buffer of
    n_steps + 1 slots (`cone_factor`).  The run-size rule prices this
    storage at the shapes `ensemble._call_arrays` lists for it.
    """

    n_steps: int
    phi: float
    pi: np.ndarray = field(default=None, repr=False)
    cones: np.ndarray = field(default=None, repr=False)
    origin: int = 0
    lag: int = 0
    #: static stacks: (the factors at the even sites, at the odd sites);
    #: dynamic ones: (e^{i phi} * (1, -1), one step's buffer)
    factors: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if (self.pi is None) == (self.cones is None):
            raise ValueError("a MapStack holds either pi or cones")
        plus, minus = np.exp(1j * float(self.phi)) * np.array([1.0 + 0j, -1.0 + 0j])
        if self.cones is None:
            factors = tuple(np.where(self.pi[s::2], minus, plus) for s in (0, 1))
        else:
            factors = ((plus, minus),
                       np.empty((self.n_steps + 1, self.cones.shape[-1]),
                                dtype=np.complex128))
        object.__setattr__(self, "factors", factors)

    def cone_factor(self, step_index):
        """The up-component multipliers e^{i(phi + dphi)} of step
        step_index, 1..n_steps, at the s + 1 sites origin - s + 2k of the
        cone it acts on, s = step_index - 1 + lag, as (slot, row) cells of
        shape (s + 1, B), which broadcast against one coin plane of the
        walkers' cells (`states.ConeStack`).

        Static stacks return a contiguous view of their even-site or
        odd-site factors; dynamic ones select the step's cells into their
        one buffer, so the result holds until the next call.
        """
        s = step_index - 1 + self.lag
        if self.cones is None:
            i = (len(self.pi) - 1) // 2 + self.origin - s
            return self.factors[i % 2][i // 2:i // 2 + s + 1]
        (plus, minus), out = self.factors
        out = out[:s + 1]
        out[...] = plus
        np.putmask(out, self.cones[step_index - 1, :s + 1], minus)
        return out


def check_int(name, value, minimum):
    """Raise ValueError naming `name` unless `value` is an integer of at
    least `minimum`; numpy integers pass, bool does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def check_real(name, value):
    """Raise ValueError naming `name` unless `value` is a real number
    (numpy's included) and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def validate_disorder(kind, n_steps, p, semantics):
    """Reject invalid disorder parameters; shared by maps and ensemble configs."""
    if kind not in KINDS:
        raise ValueError(f"unknown disorder kind {kind!r}; expected one of {KINDS}")
    if semantics not in SEMANTICS:
        raise ValueError(
            f"unknown disorder semantics {semantics!r}; expected one of {SEMANTICS}"
        )
    check_int("n_steps", n_steps, 1)
    check_real("p", p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"disorder degree p = {p!r} outside [0, 1]")
    if kind == "none" and p != 0.0:
        raise ValueError('kind "none" requires p = 0')


def generate_map(kind, n_steps, p, semantics="bernoulli-uniform", seed=0):
    """Draw a phase map.  See the module docstring for the sampling rules."""
    validate_disorder(kind, n_steps, p, semantics)
    check_int("seed", seed, 0)
    width = 2 * n_steps + 1
    if kind == "none":
        # no draw: numpy 2 imports numpy.random at its first use
        return PhaseMap(kind, float(p), int(n_steps), semantics, int(seed),
                        np.zeros((n_steps, width), dtype=bool))
    rng = np.random.default_rng(seed)
    shape = (width,) if kind == "static" else (n_steps, width)
    if semantics == "exact-pi-fraction":
        mask = np.zeros(shape, dtype=bool)
        n_pi = math.floor(p * mask.size)
        mask.flat[rng.choice(mask.size, n_pi, replace=False)] = True
    elif p == 1.0:
        # every cell is selected; skip the draw (see the module docstring)
        rng.bit_generator.advance(math.prod(shape))
        mask = rng.random(shape) < 0.5
    else:
        selected = rng.random(shape) < p
        mask = selected & (rng.random(shape) < 0.5)
    if kind == "static":
        mask = np.broadcast_to(mask, (n_steps, width))
    return PhaseMap(kind, float(p), int(n_steps), semantics, int(seed), mask)


def disorder_fraction(pmap):
    """Fraction of map cells set to pi."""
    return float(pmap.pi_mask.mean())


def map_to_json(pmap):
    """Portable dict form of a map: metadata plus the row-major 0/1 entries."""
    return {
        "kind": pmap.kind,
        "p": pmap.p,
        "T": pmap.n_steps,
        "semantics": pmap.semantics,
        "seed": pmap.seed,
        "entries": pmap.pi_mask.astype(int).ravel().tolist(),
    }


def map_from_json(obj):
    """Rebuild a PhaseMap from its dict form, validating shape and content."""
    required = {"kind", "p", "T", "semantics", "seed", "entries"}
    missing = required - set(obj)
    if missing:
        raise ValueError(f"phase-map object missing keys: {sorted(missing)}")
    kind, p, n_steps = obj["kind"], obj["p"], obj["T"]
    semantics, seed, entries = obj["semantics"], obj["seed"], obj["entries"]
    check_int("T", n_steps, 1)
    check_int("seed", seed, 0)
    validate_disorder(kind, n_steps, p, semantics)
    width = 2 * n_steps + 1
    if len(entries) != n_steps * width:
        raise ValueError(
            f"entries has {len(entries)} cells, expected {n_steps}*{width}"
        )
    flat = np.asarray(entries)
    if not np.isin(flat, (0, 1)).all():
        raise ValueError("entries must contain only 0 and 1")
    mask = flat.astype(bool).reshape(n_steps, width)
    if kind == "none" and mask.any():
        raise ValueError('kind "none" map has nonzero entries')
    if kind == "static" and not (mask == mask[0]).all():
        raise ValueError("static map rows differ between steps")
    return PhaseMap(kind, float(p), int(n_steps), semantics, int(seed), mask)
