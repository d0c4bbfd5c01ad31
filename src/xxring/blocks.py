"""The block path, the one module that imports numpy: the block kernel
`reweight` and the array concurrence `concurrence_xstate`, and on them
`gibbs_concurrence`, `sweep`, `verify_propositions` and the `sweep` and
`verify` commands. No single-point command and no `import xxring` loads it:
`cli` and the package root import it on first use.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .eigensolver import RingModel, ring_model, same_level
from .entanglement import _CLAMP_TOL, _checks
from .experiments import DEFAULT_SEED, MAX_POINTS, PROPOSITION_TOL, PropositionReport, _energy_formula
from .hamiltonian import ModelParams
from .thermal import GibbsBlock, PairDensity

# A kernel pass holds at most this many (point, class) weights; larger
# blocks of points are reweighted a pass at a time, so the passes bound the
# memory of a stack of any size (a `verify` call stacks every ring it
# checks). A point weighs each level class of each ring of the stack once
# (188 classes at n = 10, 2,901 at n = 16), never each of its 2^n levels, so
# a pass of one ring takes at least 361 points. A pass forms the class
# energies of the (j, b) entries it reads and frees them before the next
# pass: its points' own where every point has its own entry (a `verify`
# call, a single point), else those from the lowest to the highest its
# points read. Every caller's entries come in order (a grid b[:, None]
# against t), so that is at most one entry per point, and memory is flat in
# the point count (tracemalloc peaks at n = 16: `verify` 16.3 MiB at 100
# samples, 16.5 MiB at 400; a 1,000-field `sweep` 16.4 MiB).
_BLOCK_WEIGHTS = 1 << 20


def _flat(x: np.ndarray, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """x broadcast to shape, as a new flat array."""
    out = np.empty(shape, dtype)
    out[...] = x
    return out.ravel()


class _Layout(NamedTuple):
    """What a kernel pass reads of a stack of rings; every array is read-only."""

    kappa: np.ndarray  # the rings' classes side by side on one class axis
    sz: np.ndarray
    starts: np.ndarray  # where each ring's classes start, and how many
    sizes: np.ndarray
    tables: tuple[np.ndarray, ...]  # each ring's own class table, and its slice of the class axis
    segments: tuple[slice, ...]
    two_n: np.ndarray  # each ring's 2n, a column


@functools.lru_cache(maxsize=64)
def _layout(rings: tuple[RingModel, ...]) -> _Layout:
    """The layout of a stack of rings, built on its first call from the
    rings' class tables: their kappa and sz concatenated, and each table as
    one (6, classes) array, a lone ring being a stack of one."""
    kappa = np.concatenate([r.class_kappa for r in rings])
    sz = np.concatenate([r.class_sz for r in rings])
    sizes = np.array([len(r.class_kappa) for r in rings])
    bounds = [0, *itertools.accumulate(sizes.tolist())]
    starts = np.array(bounds[:-1])
    segments = tuple(slice(lo, hi) for lo, hi in itertools.pairwise(bounds))
    two_n = np.array([[2.0 * r.n] for r in rings])
    tables = tuple(np.array(r.classes) for r in rings)
    for array in (kappa, sz, starts, sizes, two_n, *tables):
        array.setflags(write=False)
    return _Layout(kappa, sz, starts, sizes, tables, segments, two_n)


def reweight(ring: RingModel | Sequence[RingModel], j, b, t) -> GibbsBlock:
    """Boltzmann averages of one ring, or of a stack of rings, at the
    broadcast points (j, b, t), by the kernel rules of `thermal`.

    j, b and t are scalars or arrays that broadcast together, and every
    output array has their broadcast shape; a (fields x temperatures) grid is
    b[:, None] against t[None, :]. A sequence of rings is a stack: each ring
    is reweighted at every point, and every output array gains a leading
    ring axis, read through the stack's layout (`_layout`; a lone ring is a
    stack of one). The points are reweighted a pass of at most
    _BLOCK_WEIGHTS (point, class) weights at a time. A pass forms the class
    energies of the (j, b) entries it reads, once per entry: where j and b
    have the points' shape, each point is its own entry and the class
    energies are the pass's weights (every `verify` call, every single
    point); otherwise each point gathers its entry's row. Which of these a
    call takes depends only on the shapes of j, b and t. Each ring is
    shifted by its own ground energy and its sums run over exactly its own
    classes in the order a lone call uses, so a stacked ring's every number
    is bit-identical to its lone call.
    """
    lone = isinstance(ring, RingModel)
    layout = _layout((ring,) if lone else tuple(ring))
    kappa, sz, starts = layout.kappa, layout.sz, layout.starts
    j, b, t = np.asarray(j, dtype=float), np.asarray(b, dtype=float), np.asarray(t, dtype=float)
    # the (j, b) entries, each a row of class energies, and the points' shape
    pairs = np.broadcast(j, b)
    shape = np.broadcast(j, b, t).shape
    # each (j, b) entry's j and b and each point's temperature, flat; where the points
    # outnumber the entries, each point's entry too
    own = pairs.shape == shape
    field = None if own else _flat(np.arange(pairs.size).reshape(pairs.shape), shape, np.intp)
    j, b, t = _flat(j, pairs.shape), _flat(b, pairs.shape), _flat(t, shape)
    if t.size == 0:
        raise ValueError("no points to reweight")
    coldest = t.min()
    if not coldest >= 0:
        # a nan is the least (min carries it) and is not negative: it is named on the refusal
        # path only, which an accepted call never takes
        raise ValueError("temperature must be a number" if np.isnan(coldest)
                         else "temperature must be nonnegative")
    # the points at T = 0, where there is one
    zero = t == 0 if coldest == 0 else None
    moments = np.empty((len(layout.tables), t.size, 6))
    step = max(1, _BLOCK_WEIGHTS // kappa.size)
    for lo in range(0, t.size, step):
        rows = slice(lo, lo + step)
        # the pass's (j, b) entries and each point's entry among them: point k's own entry k,
        # else the lowest to the highest read
        if own:
            entries, entry = rows, None
        else:
            read = field[rows]
            entries = slice(read.min(), read.max() + 1)
            entry = read - entries.start
        # (entries, classes), and each class's ring's ground energy at each entry
        energies = j[entries, None] * kappa + b[entries, None] * sz
        e0 = (energies.min(axis=1, keepdims=True) if len(layout.segments) == 1
              else np.repeat(np.minimum.reduceat(energies, starts, axis=1), layout.sizes, axis=1))
        at_zero = None if zero is None else zero[rows]
        # each entry's ground level, by unshifted class energies, built only for a point at T = 0
        ground = same_level(energies, e0, e0) if at_zero is not None and at_zero.any() else None
        # e0 - E is exactly -(E - e0), so dividing it by T is dividing E - e0 by -T
        np.subtract(e0, energies, out=energies)
        # freed before the weights are gathered, so a pass holds two arrays of its size at a time
        del e0
        # the pass's one (points x classes) array: where each point has its own entry, the
        # class energies themselves; a second one per pass made the allocator hand the memory
        # back and fault it in again each call
        weights = energies if entry is None else energies[entry]
        # at a small enough T a negative e0 - E over T overflows to -inf, which exp
        # turns into the exact weight 0; at T = 0 the quotients are infinite or nan,
        # and the ground mask below replaces them
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            weights /= t[rows, None]
        np.exp(weights, out=weights)
        if ground is not None:
            # at T = 0 each class of the ground level weighs exactly 1, every other class 0
            weights[at_zero] = ground[at_zero] if entry is None else ground[entry[at_zero]]
        # einsum, not a BLAS product, so the sums round alike at any BLAS thread count
        for table, segment, out in zip(layout.tables, layout.segments, moments[:, rows]):
            np.einsum("pc,rc->pr", weights[:, segment], table, out=out)
        # freed before the next pass forms its own, so a call holds one pass's arrays at a time
        del energies, weights
    # one moment per row from here on, so every step below runs over contiguous points
    moments = moments.transpose(2, 0, 1).copy()
    z = moments[0]
    # min and max carry a nan
    if not (z.min() >= 1.0 and z.max() < np.inf):
        raise FloatingPointError("non-finite shifted partition sum")
    moments[1:] /= z
    if field is not None:
        j, b = j[field], b[field]
    u = j * moments[1] + b * moments[2]
    if not (np.isfinite(u).all() and np.isfinite(moments).all()):
        raise FloatingPointError("non-finite thermal observable")
    shape = shape if lone else (len(layout.tables),) + shape
    # the pair patterns 00, 01, 10 (= 01) and 11 on a trailing axis
    p = moments[[3, 4, 4, 5]].transpose(1, 2, 0).reshape(shape + (4,))
    return GibbsBlock(z_shifted=z.reshape(shape), u=u.reshape(shape), m=moments[2].reshape(shape),
                      g_xx=(moments[1] / layout.two_n).reshape(shape),
                      g_zz=(moments[3] - moments[4] - moments[4] + moments[5]).reshape(shape), probabilities=p)


def _first(bad: np.ndarray, *arrays) -> tuple[float, ...]:
    """The values of arrays (of bad's shape) at the first point where bad holds."""
    index = np.unravel_index(np.argmax(bad), bad.shape)
    return tuple(float(a[index]) for a in arrays)


def _clamp_unit(value, what: str):
    """Clamp roundoff excursions out of [0, 1]; scalar in gives float out,
    array in gives array out. Raises if any point lies further out, or is nan."""
    value = np.asarray(value, dtype=float)
    # both bounds in one test, which a nan fails
    inside = (value >= -_CLAMP_TOL) & (value <= 1.0 + _CLAMP_TOL)
    if not inside.all():
        raise ValueError(f"{what} = {_first(~inside, value)[0]} lies outside [0, 1] beyond roundoff")
    value = np.minimum(np.maximum(value, 0.0), 1.0)
    return float(value) if value.ndim == 0 else value


def _validated(rho: PairDensity) -> tuple[np.ndarray, ...]:
    """(u_plus, u_minus, w, |z|) as arrays, after checking that every point
    is a state; the message names the first point that is not. A nan is no
    state."""
    u_plus, u_minus, w, z = (np.asarray(x, dtype=float) for x in (rho.u_plus, rho.u_minus, rho.w, rho.z))
    abs_z = np.abs(z)
    checks = _checks(u_plus, u_minus, w, abs_z)
    # one test on the accepted path; a refusal names the first check failed, in this order
    if not (checks[0][0] & checks[1][0] & checks[2][0]).all():
        for ok, problem in checks:
            if not ok.all():
                bad, *fields = np.broadcast_arrays(~ok, u_plus, u_minus, w, z)
                raise ValueError(f"{problem}: {PairDensity(*_first(bad, *fields))}")
    return u_plus, u_minus, w, abs_z


def concurrence_xstate(rho: PairDensity):
    """Closed form for the symmetric X-form state: 2 max(0, |z| - sqrt(u+ u-)).
    The fields of rho may be arrays of one shape: the concurrence is then an
    array of that shape, and any point that is not a state raises."""
    u_plus, u_minus, _, abs_z = _validated(rho)
    value = 2.0 * (abs_z - np.sqrt(np.maximum(u_plus * u_minus, 0.0)))
    return _clamp_unit(np.maximum(0.0, value), "concurrence")


def gibbs_concurrence(ring: RingModel | Sequence[RingModel], j, b, t) -> tuple[GibbsBlock, np.ndarray | float]:
    """Gibbs averages and nearest-neighbor concurrence at the broadcast
    points (j, b, t) of one ring, or of a stack of rings, from one
    `reweight` call on its bond.

    The concurrence is the X-state closed form of the block's positive-sum
    pair probabilities (`GibbsBlock.pair_density`): a float at a single
    point of one ring, else an array of the block's shape. A single site has
    no bond and reports 0, never reaching the state checks.
    """
    block = reweight(ring, j, b, t)
    rho = block.pair_density()
    lone = isinstance(ring, RingModel)
    bonded = [r.n > 1 for r in ([ring] if lone else ring)]
    if all(bonded):
        return block, concurrence_xstate(rho)
    bonded = np.array(bonded[0] if lone else bonded)
    concurrence = np.zeros(block.g_xx.shape)
    concurrence[bonded] = concurrence_xstate(PairDensity(*(x[bonded] for x in (
        rho.u_plus, rho.u_minus, rho.w, rho.z))))
    return block, concurrence[()]


def sweep(params: ModelParams, t_grid, b_grid) -> tuple[GibbsBlock, np.ndarray]:
    """Observables and concurrence on the (t, b) grid, in one reweighting of
    the cached ring.

    Returns the Gibbs block and its concurrence, both of shape
    (fields, temperatures): entry [k_b, k_t] is the point (b_grid[k_b],
    t_grid[k_t]). The grids are any sequences of real numbers, read in the
    order given, never changed. The concurrence is the same number
    `thermal_concurrence` gives at the point; a single site has no bond and
    reports 0. A grid of more than MAX_POINTS points is refused before any
    reweighting.
    """
    t_values = [float(t) for t in t_grid]
    b_values = [float(b) for b in b_grid]
    if not t_values or not b_values:
        raise ValueError("temperature and field grids must be nonempty")
    if not all(map(math.isfinite, t_values + b_values)):
        raise ValueError("temperature and field grid entries must be finite")
    # the grid's strongest field must pass the energy bound of a single point
    ModelParams(n=params.n, j=params.j, b=max(map(abs, b_values)))
    if len(t_values) * len(b_values) > MAX_POINTS:
        raise ValueError(f"grid of {len(t_values) * len(b_values)} rows exceeds cap {MAX_POINTS}")
    return gibbs_concurrence(ring_model(params.n), params.j, np.array(b_values)[:, None], t_values)


def _draw_parameters(rng: np.random.Generator, samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`samples` draws of (j, b, t) from one block of the generator's doubles.

    Each draw reads j = uniform(-2, 2), redrawn while |j| < 0.05 so that
    energy-based relations keep a safe denominator, then b = uniform(-3, 3)
    and t = exp(uniform(log 0.05, log 50)). `Generator.uniform(low, high)`
    maps the generator's next double u to low + (high - low) * u, so walking
    one `rng.random` block with the same maps reads the same doubles, in the
    same order, as one `uniform` call per value; redraws that use up the
    block draw more doubles.
    """
    u = rng.random(3 * samples).tolist()
    # high - low as a double: 4 and 6 exactly, and the log span rounded once
    log_t_low = math.log(0.05)
    log_t_span = math.log(50.0) - log_t_low
    j, b, t = [], [], []
    k = 0
    for left in range(samples, 0, -1):
        j_k = 0.0
        while abs(j_k) < 0.05:
            if len(u) - k < 3:
                u += rng.random(3 * left).tolist()
            j_k = -2.0 + 4.0 * u[k]
            k += 1
        j.append(j_k)
        b.append(-3.0 + 6.0 * u[k])
        t.append(math.exp(log_t_low + log_t_span * u[k + 1]))
        k += 2
    return np.array(j), np.array(b), np.array(t)


def _ring_gaps(rings: list[RingModel], j: np.ndarray, b: np.ndarray,
               t: np.ndarray) -> dict[int, tuple[float, float, float]]:
    """Worst gaps of the three propositions on each of the rings over the
    draws (j, b, t), by ring size, from one kernel call on the rings as one
    stack at the rows (j, b), (j, -b), (-j, b), (|j|, 0) and (-|j|, 0): the
    field mirror of the concurrence (rows 0 and 1), the exchange mirror
    (rows 0 and 2), and at zero field the gap between the concurrence and
    the halved energy formula (rows 3 and 4, whose sign branch follows the
    sign of j). Every concurrence is the clamped X-state value the program
    prints. The exchange mirror compares the unclamped X-state value
    2 (|z| - sqrt(u+ u-)), which is the concurrence wherever that is
    positive: its evenness implies the concurrence's, and on odd rings it
    breaks even where both signs are unentangled. It is computed on every
    ring, so the odd control reads it too."""
    abs_j = np.abs(j)
    rows_j = np.array([j, j, -j, abs_j, -abs_j])
    rows_b = np.zeros((5, b.size))
    rows_b[0] = rows_b[2] = b
    rows_b[1] = -b
    g, concurrence = gibbs_concurrence(rings, rows_j, rows_b, t)
    n = np.array([float(ring.n) for ring in rings])[:, None, None]
    mirror_b = np.abs(concurrence[:, 0] - concurrence[:, 1]).max(axis=1)
    # 2 (|z| - sqrt(u+ u-)) of rows 0 and 2, with z = g_xx / 2 and corners p00 and p11
    p = g.probabilities[:, 0:3:2]
    unclamped = np.abs(g.g_xx[:, 0:3:2]) - 2.0 * np.sqrt(p[..., 0] * p[..., 3])
    mirror_j = np.abs(unclamped[:, 0] - unclamped[:, 1]).max(axis=1)
    zero_field = slice(3, 5)
    formula = _energy_formula(g.u[:, zero_field], n, rows_j[zero_field], g.g_zz[:, zero_field])
    energy_gap = np.abs(concurrence[:, zero_field] - formula).max(axis=(1, 2))
    return {ring.n: gaps for ring, gaps in zip(rings, zip(mirror_b.tolist(), mirror_j.tolist(), energy_gap.tolist()))}


def verify_propositions(n_list, samples: int = 200, seed: int = DEFAULT_SEED,
                        odd_control: int = 0) -> list[PropositionReport]:
    """Randomized checks of the three symmetry propositions.

    1: concurrence is even in the field for every ring size.
    2: concurrence is even in the exchange constant for even rings.
    3: at zero field the concurrence, the X-state value every command
       prints, equals the halved energy formula, with the sign branch
       chosen by the sign of the exchange constant.

    Each proposition is checked on `samples` draws of (j, b, t) per
    applicable ring size. Each report names its rings (`rings`: the list as
    given for 1 and 3, its even rings for 2) and holds their worst
    discrepancy, 0 for no ring; it passes below 1e-9. The draws are made
    once, in one generator call (`_draw_parameters`), and the distinct
    rings, in first-listed order and then the control, are reweighted as one
    stack at the same 5 * samples points (at most MAX_POINTS) serving all
    three: one kernel call (`_ring_gaps`), whose passes bound its memory. An
    empty ring list is refused: it would pass every proposition vacuously.

    A nonzero odd_control adds a fourth report, proposition 2 on the rings
    (odd_control,), an odd ring n >= 3 outside the claim: the symmetry
    breaks there (expect a failing flag), so it is never a pass criterion.
    Every argument is checked, the list's rings before the control, before
    any draw.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if 5 * samples > MAX_POINTS:
        raise ValueError(f"{samples} samples make {5 * samples} points per ring, over cap {MAX_POINTS}")
    # numpy's own refusal names neither the argument nor its value
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n_list = list(n_list)
    if not n_list:
        raise ValueError("ring list must be nonempty")
    rings = {n: ring_model(n) for n in n_list}
    if odd_control:
        if odd_control < 3 or odd_control % 2 == 0:
            raise ValueError(f"control requires an odd ring n >= 3, got n={odd_control}")
        rings[odd_control] = ring_model(odd_control)
    rng = np.random.default_rng(seed)
    j, b, t = _draw_parameters(rng, samples)
    gaps = _ring_gaps(list(rings.values()), j, b, t)
    scopes = [(1, tuple(n_list)), (2, tuple(n for n in n_list if n % 2 == 0)), (3, tuple(n_list))]
    if odd_control:
        scopes.append((2, (odd_control,)))
    reports = []
    for k, scope in scopes:
        gap = max((gaps[n][k - 1] for n in scope), default=0.0)
        reports.append(PropositionReport(k, scope, samples, gap, gap < PROPOSITION_TOL))
    return reports


def _csv_lines(t_cells, b_cells, j: float, n: int, columns) -> list[str]:
    """The sweep CSV: the header, then one line per grid point, B outer and
    T inner, from the T and B cells of `_grid` and the five columns (U, M,
    Gxx, Gzz, concurrence), each a list of rows of floats, one per field."""
    values = "%.12g,%.12g,%.12g,%.12g,%.12g\n"
    lines = ["T,B,J,N,U,M,Gxx,Gzz,concurrence\n"]
    rest = "%.12g,%d," % (j, n)
    for b_cell, *row_columns in zip(b_cells, *columns):
        point = b_cell + rest
        lines += [t_cell + point + values % (u, m, g_xx, g_zz, c)
                  for t_cell, u, m, g_xx, g_zz, c in zip(t_cells, *row_columns)]
    return lines


def _grid_steps(args, axis) -> int:
    """Check one axis's grid options, building nothing; return its point count."""
    lo, hi, steps, scale = (getattr(args, f"{axis}_{key}") for key in ("min", "max", "steps", "scale"))
    if steps < 1:
        raise ValueError(f"--{axis}-steps must be >= 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"--{axis}-min and --{axis}-max must be finite")
    # a span wider than the doubles would overflow inside the grid's spacing
    if not math.isfinite(hi - lo):
        raise ValueError(f"--{axis}-max - --{axis}-min must be finite")
    if hi < lo:
        raise ValueError(f"--{axis}-max must be >= --{axis}-min")
    if steps > 1 and scale == "log" and lo <= 0:
        raise ValueError(f"log scale needs positive --{axis}-min")
    return steps


def _grid(args, axis) -> tuple[tuple[float, ...], tuple[str, ...]]:
    """One axis of a sweep, after `_grid_steps` has checked it: its values,
    ascending, as Python floats, and their CSV cells ("%.12g," of each
    value), two tuples kept by `_axis`. The memo key carries the sign of
    each bound, since -0.0 == 0.0 but a -0 axis prints -0."""
    lo, hi, steps, scale = (getattr(args, f"{axis}_{key}") for key in ("min", "max", "steps", "scale"))
    return _axis(lo, hi, steps, scale, math.copysign(1.0, lo), math.copysign(1.0, hi))


@functools.lru_cache(maxsize=2)
def _axis(lo, hi, steps, scale, lo_sign, hi_sign):
    """`_grid`'s memo of the last two axes. A sweep reads its T axis and then
    its B axis, so the sweeps of one process that share a T axis build it
    once, and each new B axis replaces the previous one; a fresh process
    builds both."""
    if steps == 1:
        values = (lo,)
    else:
        space = np.geomspace if scale == "log" else np.linspace
        values = tuple(sorted(space(lo, hi, steps).tolist()))
    return values, tuple(["%.12g," % value for value in values])


def _cmd_sweep(args) -> int:
    params = ModelParams(n=args.n, j=args.j, b=0.0)
    # checked before any grid is built: a huge grid would exhaust memory first
    rows = _grid_steps(args, "t") * _grid_steps(args, "b")
    if rows > MAX_POINTS:
        raise ValueError(f"grid of {rows} rows exceeds cap {MAX_POINTS}")
    (t_values, t_cells), (b_values, b_cells) = _grid(args, "t"), _grid(args, "b")
    block, concurrence = sweep(params, t_values, b_values)
    lines = _csv_lines(t_cells, b_cells, params.j, params.n,
                       [a.tolist() for a in (block.u, block.m, block.g_xx, block.g_zz, concurrence)])
    if args.output == "-":
        # a line at a time: a write-through stdout (PYTHONUNBUFFERED) drops what a closed pipe
        # cuts from one large write, but the next line's write raises BrokenPipeError
        sys.stdout.writelines(lines)
    else:
        with open(args.output, "w", newline="") as handle:
            handle.writelines(lines)
        print(f"wrote {len(lines) - 1} rows to {args.output}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    try:
        n_list = [int(part) for part in args.n_list.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--n-list must be comma-separated integers, got {args.n_list!r}") from None
    reports = verify_propositions(n_list, samples=args.samples, seed=args.seed, odd_control=args.odd_control)
    failed = False
    for rep in reports[:3]:
        scope = f"n in {list(rep.rings)}" + (", b = 0, both exchange signs" if rep.proposition == 3 else "")
        if all(n < 2 for n in rep.rings):
            # no bond in scope: a gap of 0 there checked nothing
            print(f"proposition {rep.proposition}: nothing checked  (no ring with a bond, {scope})")
            continue
        status = "pass" if rep.passed else "FAIL"
        failed = failed or not rep.passed
        print(f"proposition {rep.proposition}: {status}  "
              f"(max discrepancy {rep.max_discrepancy:.3e}, {rep.samples} samples, {scope})")
    for control in reports[3:]:
        print(f"proposition 2 on n={control.rings[0]} (odd, out of claim, negative control): "
              f"symmetry {'UNEXPECTEDLY held' if control.passed else 'breaks as expected'} "
              f"(max discrepancy {control.max_discrepancy:.3e})")
    return 1 if failed else 0
