"""Generic stratified (Carnot) groups of step at most three.

The model is specified by layer dimensions and the structure constants of a
graded Lie bracket on the basis.  Identifying the group with its algebra,
the product is the Baker-Campbell-Hausdorff polynomial, which terminates for
nilpotent brackets; through step three it is exactly

    a . b = a + b + [a,b]/2 + [a,[a,b]]/12 - [b,[a,b]]/12.

Dilatations act as eps^i, the product eps * ... * eps, on the i-th layer of
every model.  The shipped homogeneous gauge is the max-type quasi-norm
max_i |a_i|^{1/i}; it is exactly homogeneous but only subadditive up to a
constant, which can be estimated empirically.

Every vector group model of the lab is a ``CarnotModel``: Euclidean space is
step 1 with no brackets, H(n) and C x R are step 2.  The subclasses keep
their own gauge.  The ambient dilatation is derived, not declared:
delta_eps = delta^e_eps, the dilatation based at the identity e.

Every kernel is generated once per model, in one ``exec``, from its bracket
table and step (``_compiled_product``).  On floats: the product, on Python
floats for a point and on column views for a batch, the layer factors e,
e * e and e * e * e, and for single points the dilate and the (-p) . q of a
distance.  On exact points, integer numerators with the table's constants
over one denominator: the product and the expanded dilate, each one list
comprehension over the rows of an exact batch with every constant folded in,
a single point its one-row batch.  Euclidean space writes its batch
primitives as whole-row numpy arithmetic: the same IEEE operations in the
same order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from dilatation_lab.config import JACOBI_TOL
from dilatation_lab.errors import ModelError
from dilatation_lab.core.reports import sup
from dilatation_lab.core.scales import POSITIVE_REALS, Scale
from dilatation_lab.core.structure import float_points, vector_sample_ball
from dilatation_lab.models.base import (
    EXACT_TYPES, ExactPoint, ExactRows, GroupModel, columns, dot_square, is_integer, is_real,
    power, real_array, row_dot, stack)


def _scale_ratio(value) -> tuple[int, int]:
    """A real rational scale as (numerator, positive denominator)."""
    try:
        return value.as_integer_ratio()
    except AttributeError:
        raise TypeError(f"exact points take a real rational scale, got {value!r}") from None


def _list_gap(p: list, q: list) -> float:
    return sup([abs(a - b) for a, b in zip(p, q)])


def _numerators(p) -> list:
    """The numerator rows of an exact point or batch; TypeError for anything else."""
    if type(p) is ExactPoint:
        return [p.num]
    if type(p) is ExactRows:
        return p.rows
    raise TypeError(f"exact points do not mix with floats, got {p!r}")


def _exact_operands(a, b):
    """The numerator rows and denominators of exact a and b, a single point's row
    repeated beside a batch, as a float point is beside a float batch."""
    A, B = _numerators(a), _numerators(b)
    if len(A) != len(B):
        if len(A) == 1:
            A = A * len(B)
        elif len(B) == 1:
            B = B * len(A)
        else:
            raise ValueError(f"batches of {len(A)} and {len(B)} rows do not pair")
    return A, a.den, B, b.den


def _exact_call(kernel, a, b, *scale):
    """An exact kernel on a and b: one point when both are single, else one batch,
    either brought to lowest terms by one gcd."""
    rows, den = kernel(*_exact_operands(a, b), *scale)
    if type(a) is type(b) is ExactPoint:
        return ExactPoint(rows[0], den)
    return ExactRows(rows, den)


def _compiled_product(dim: int, step: int, entries, den: int, layer_index) -> dict:
    """The kernels of a bracket table by name, generated in one ``exec`` as
    ``dataclasses`` generates methods.  On Python floats:

    * ``_product(A, B)``, on Python floats or on the columns of a batch;
    * ``_inverse_product(X, B)``, (-x) . b, for ``distance``;
    * ``_dilate_point(X, e, Y)``, x . delta_e((-x) . y);
    * ``_scales(e)``, the layer factors, for ``_dilate``.

    Layer i's factor is e^i written as products, e, e * e and e * e * e, the
    one rule of every model: a product rounds alike on a Python float and on
    each element of a numpy column, so a per-row scale takes the same text.
    ``layer_index`` is each coordinate's layer.  Each constant is its ``repr``,
    which reads back as the same float, and a 1.0 is left out, since 1.0 * x
    is x.  Each coordinate holds only its table's terms: a_k + b_k, then a
    bracket sum from its first term in table order, then a 1/12 term if it
    has a double bracket; a zero sum keeps its IEEE sign, -0.0 + -0.0 stays
    -0.0 on layer 1.

    On the integer numerators of exact points each bracket constant is its
    integer numerator over ``den``, h.  Each function takes two lists of
    numerator rows of equal length, each over its one denominator, and returns
    the list of result rows, one per pair, and their one denominator, not
    reduced; the coefficients of the scale and the denominators are computed
    once per call, the brackets once per row:

    * ``_exact_product(A, da, B, db)``, a + b + [a,b]/2 over 2 h da db on
      step 2, and + ([a,[a,b]] - [b,[a,b]])/12 over 12 h^2 da^2 db^2 on step 3;
    * ``_exact_dilate(X, dx, Y, dy, p, q)``, x . delta_eps(x^-1 y) at eps = p/q
      expanded (x^-1 y = y - x - [x,y]/2 + ...) layer by layer,

        (1-eps) x_1 + eps y_1,
        (1-eps^2) x_2 + eps^2 y_2 + (eps-eps^2)/2 [x,y],
        (1-eps^3) x_3 + eps^3 y_3 + ((eps^2-eps^3) [x,y] + (eps-eps^2) [x-y,x_2])/2
            + (eps (1-eps)^2 [x,[x,y]] - eps^2 (1-eps) [y,[x,y]])/12,

      where x_2 is the layer-2 part of x, over q^step dx dy times 1, 2 h and
      12 h^2 dx dy on steps 1, 2 and 3."""

    def bracket(u, v, const=3):
        # the table's terms of [u, v] per coordinate, each constant an entry's
        # float (3) or integer numerator (4); a None in v is 0 and drops its
        # product, as [a, b] does on layer 1, where a graded i < j puts e_i
        out = [[] for _ in range(dim)]
        for entry in entries:
            i, j, k, c = *entry[:3], entry[const]
            if v[j]:
                minus = f" - {u[j]} * {v[i]}" if v[i] else ""
                t = f"({u[i]} * {v[j]}{minus})"
                out[k].append(t if c == 1 else f"{c!r} * {t}")
        return [" + ".join(t) for t in out]

    def product(u, v):
        # the lines that name the brackets of u . v, and its coordinates
        uv = bracket(u, v)
        terms = [f"{x} + {y}" + (f" + {w} * 0.5" if w else "") for x, y, w in zip(u, v, z)]
        if step == 3:
            terms = [f"{t} + (({p}) - ({q})) * (1.0 / 12.0)" if p else t
                     for t, p, q in zip(terms, bracket(u, z), bracket(v, z))]
        return [f"{w} = {e}" for w, e in zip(z, uv) if w], terms

    def mul(*factors):
        # a product's text, its factors of 1 left out
        return " * ".join(str(f) for f in factors if f != 1)

    def rows(terms, u, v, uv, pair):
        # the terms' rows, one per pair of numerator rows zipped from the pair of
        # arguments, with the brackets uv of the pair bound once per row
        names, brackets = [w for w in z if w], [e for w, e in zip(z, uv) if w]
        bind = f" for {', '.join(names)}, in [({', '.join(brackets)},)]" if names else ""
        return (f"[({', '.join(terms)},) for ({', '.join(u)},), ({', '.join(v)},)"
                f" in zip({pair}){bind}]")

    a, b, x, y, t = ([f"{n}{i}" for i in range(dim)] for n in "abxyt")
    # the coordinates that [u, v] has terms on, for any u and v
    z = [f"z{k}" if w else None for k, w in enumerate(bracket(a, b))]
    f = [f"f{i}" for i in layer_index]
    scales = [" * ".join(["e"] * i) for i in range(1, step + 1)]
    factors = [f"f{i} = {s}" for i, s in enumerate(scales)]
    lines, terms = product(a, b)
    negate = f"{', '.join(a)} = {', '.join('-' + n for n in x)}"
    inner, scaled = product(a, y)
    outer, result = product(x, t)

    # a . b exactly, over m da db: m (a_k db + b_k da) + s z_k, z = [a, b] over h da db
    h, ab, xy = den, bracket(a, b, 4), bracket(x, y, 4)
    m, s, shared = {1: (1, 1, []), 2: (2 * h, 1, []),
                    3: ("m", "s", [f"s = {6 * h} * da * db", f"m = {2 * h} * s"])}[step]
    exact = [mul(m, f"({p} * db + {q} * da)") + (f" + {mul(s, w)}" if w else "")
             for p, q, w in zip(a, b, z)]
    if step == 3:
        exact = [f"{n} + db * ({p}) - da * ({q})" if p else n
                 for n, p, q in zip(exact, bracket(a, z, 4), bracket(b, z, 4))]
    # delta^x_eps y exactly, over M q^step dx dy with c = p (q - p): coordinate k of
    # layer i is u_i x_k + v_i y_k + w_i z_k, z = [x, y] over h dx dy, where
    # u_i = M q^(step-i) (q^i - p^i) dy, v_i = M q^(step-i) p^i dx and
    # w_i = W q^(step-i) p^(i-2) c, W = M / 2h; step 3 adds the g and c terms
    M, W, coefficients = {
        1: (1, 1, ["r = q - p"]),
        2: (2 * h, 1, ["r = q - p", "c = p * r"]),
        3: ("n", "w", ["r = q - p", "c = p * r", f"n = {12 * h * h} * dx * dy",
                       f"w = {6 * h} * dx * dy", f"g = {6 * h} * q * c * dy", "gy = g * dy",
                       "gx = g * dx", "cy = c * r * dy", "cx = c * p * dx"])}[step]
    powers = {1: "r", 2: "(q * q - p * p)", 3: "(q * q * q - p * p * p)"}
    for i in range(1, step + 1):
        qs, ps = ["q"] * (step - i), ["p"] * i
        coefficients += [f"u{i} = {mul(M, *qs, powers[i], 'dy')}", f"v{i} = {mul(M, *qs, *ps, 'dx')}",
                         *([f"w{i} = {mul(W, *qs, *ps[2:], 'c')}"] if i > 1 else [])]
    dilated = [f"u{i + 1} * {p} + v{i + 1} * {q}" + (f" + w{i + 1} * {w}" if w else "")
               for i, p, q, w in zip(layer_index, x, y, z)]
    if step == 3:
        # g [x-y, x_2] with [x, x_2] over h dx^2, and the /12 terms over h^2 dx^2 dy
        # and h^2 dx dy^2
        x2 = [n if i == 1 else None for n, i in zip(x, layer_index)]
        for g, br in (("+ gy", bracket(x, x2, 4)), ("- gx", bracket(y, x2, 4)),
                      ("+ cy", bracket(x, z, 4)), ("- cx", bracket(y, z, 4))):
            dilated = [f"{n} {g} * ({e})" if e else n for n, e in zip(dilated, br)]
    functions = [
        ["def _product(A, B):", f"{', '.join(a)}, = A", f"{', '.join(b)}, = B",
         *lines, f"return [{', '.join(terms)}]"],
        ["def _inverse_product(X, B):", f"{', '.join(x)}, = X", f"{', '.join(b)}, = B",
         negate, *lines, f"return [{', '.join(terms)}]"],
        ["def _dilate_point(X, e, Y):", f"{', '.join(x)}, = X", f"{', '.join(y)}, = Y",
         negate, *factors, *inner,
         *(f"{n} = ({c}) * {g}" for n, c, g in zip(t, scaled, f)),
         *outer, f"return [{', '.join(result)}]"],
        ["def _scales(e):", f"return {', '.join(scales)},"],
        ["def _exact_product(A, da, B, db):", *shared,
         f"return {rows(exact, a, b, ab, 'A, B')}, {mul(m, 'da', 'db')}"],
        ["def _exact_dilate(X, dx, Y, dy, p, q):", *coefficients,
         f"return {rows(dilated, x, y, xy, 'X, Y')}, {mul(M, *['q'] * step, 'dx', 'dy')}"]]
    kernels = {}
    exec("\n".join("\n    ".join(source) for source in functions), {}, kernels)
    return kernels


class CarnotModel(GroupModel):
    """Graded nilpotent group from layer dimensions and bracket constants.

    brackets is a list of entries [i, j, k, c] declaring [e_i, e_j] = ... + c e_k
    with 0-based indices into the full graded basis and c finite.  They add up
    in one table, an entry per pair i < j and output k ([j, i, k, c] adds -c),
    from which every kernel is generated, with each constant as a float and as
    an integer numerator over one denominator, so [a, a] is exactly 0.

    Points are flat numpy coordinate vectors.  Single float points take the
    kernels compiled from the table at construction, on Python floats:
    ``dilate`` under a Python ``float`` scale, and (-p) . q, which the gauge
    ``_norm`` of ``distance`` reads as those floats.  The rest (products,
    ambient dilatations, batches, a point beside a batch, any other scale)
    takes ``_product`` and ``_dilate`` on the ``columns`` of a point or of an
    ``(N, dim)`` batch, which ``stack`` makes a point or a batch again;
    ``_dilate`` also takes a per-row scale, whose value is an ``(N, 1)`` array,
    with the same generated layer factors.  Exact points (``ExactPoint``) and
    exact batches (``ExactRows``) take the generated integer kernels
    ``_exact_product`` and ``_exact_dilate``, one call per batch and a single
    point as a one-row batch, a point beside a batch repeated on every row
    (``_exact_call``), and the gauge ``_exact_norm`` per row; ``ambient_dilate``
    is ``_exact_dilate`` based at the identity, delta_eps = delta^e_eps.  The
    group inverse is negation in either arithmetic.  Subclasses override the
    gauges, C x R ``_dilate`` for its complex scales, and Euclidean space
    ``_rows_dilate`` and ``group_product`` with whole rows, for batched distances.
    None overrides the kernels.
    """

    def __init__(self, step: int, layers, brackets):
        if not is_integer(step) or step not in (1, 2, 3):
            raise ModelError(f"step must be 1, 2 or 3, got {step!r}")
        if len(layers) != step or any(not is_integer(d) or d < 1 for d in layers):
            raise ModelError(f"need {step} positive integer layer dimensions, got {layers}")
        self.step = int(step)
        self.layers = [int(d) for d in layers]
        self.dim = sum(self.layers)
        self.coordinate_dim = self.dim
        self.scale_group = POSITIVE_REALS
        self.name = f"carnot-step{self.step}-" + "x".join(str(d) for d in self.layers)

        self.layer_of = np.zeros(self.dim, dtype=int)
        start = 0
        self._slices = []
        for i, d in enumerate(self.layers, start=1):
            self.layer_of[start:start + d] = i
            self._slices.append(slice(start, start + d))
            start += d

        pairs = {}
        for entry in brackets:
            if len(entry) != 4:
                raise ModelError(f"bracket entry must be [i, j, k, c], got {entry}")
            for idx in entry[:3]:
                if not is_integer(idx) or not 0 <= idx < self.dim:
                    raise ModelError(f"bracket index {idx!r} is not an integer in [0, {self.dim})")
            if not is_real(entry[3]) or not math.isfinite(entry[3]):
                raise ModelError(f"bracket constant {entry[3]!r} is not a finite real number")
            i, j, k, c = int(entry[0]), int(entry[1]), int(entry[2]), float(entry[3])
            if self.layer_of[k] != self.layer_of[i] + self.layer_of[j]:
                raise ModelError(
                    f"bracket [{i},{j}]->{k} violates the grading "
                    f"({self.layer_of[i]}+{self.layer_of[j]} != {self.layer_of[k]})")
            if i != j:  # [e_j, e_i] = -[e_i, e_j], and [e_i, e_i] = 0
                key, c = ((i, j, k), c) if i < j else ((j, i, k), -c)
                pairs[key] = pairs.get(key, 0.0) + c
        # each pair's float constant and its integer numerator over _bracket_den
        ratios = [(*key, c, c.as_integer_ratio()) for key, c in sorted(pairs.items()) if c]
        self._bracket_den = math.lcm(*(d for *_, (_, d) in ratios))
        self._entries = [(i, j, k, c, n * (self._bracket_den // d))
                         for i, j, k, c, (n, d) in ratios]
        self._layer_index = [int(i) - 1 for i in self.layer_of]
        vars(self).update(_compiled_product(self.dim, self.step, self._entries, self._bracket_den,
                                            self._layer_index))
        self._check_jacobi()

    @property
    def homogeneous_dimension(self) -> int:
        return sum(i * d for i, d in enumerate(self.layers, start=1))

    # --- group surface: one type check picks the arithmetic ------------------

    def identity(self):
        return np.zeros(self.coordinate_dim)

    def group_product(self, a, b):
        if type(a) in EXACT_TYPES:
            return _exact_call(self._exact_product, a, b)
        return stack(self._product(columns(a), columns(b)))

    def group_inverse(self, a):
        return -a

    def ambient_dilate(self, eps: Scale, a):
        if type(a) in EXACT_TYPES:  # delta^e_eps a, based at the identity e
            return _exact_call(self._exact_dilate, ExactPoint((0,) * self.dim), a,
                               *_scale_ratio(eps.value))
        return stack(self._dilate(eps, columns(a)))

    def dilate(self, x, eps: Scale, y):
        """x . delta_eps(x^-1 y), on exact points in ``_exact_dilate``'s expanded form."""
        if type(x) not in EXACT_TYPES:
            e = eps.value
            if type(e) is float and type(y) is np.ndarray and x.ndim == y.ndim == 1:
                return np.array(self._dilate_point(x.tolist(), e, y.tolist()))
            return self._rows_dilate(x, eps, y)
        return _exact_call(self._exact_dilate, x, y, *_scale_ratio(eps.value))

    def homogeneous_norm(self, a) -> float:
        if type(a) is ExactPoint:
            return self._exact_norm(a)
        if type(a) is ExactRows:
            return np.array([self._exact_norm(p) for p in a.unreduced()])
        return self._norm(a.tolist() if a.ndim == 1 else a)

    def distance(self, p, q) -> float:
        if type(p) is np.ndarray and type(q) is np.ndarray and p.ndim == q.ndim == 1:
            return self._norm(self._inverse_product(p.tolist(), q.tolist()))
        return super().distance(p, q)

    def sample_ball(self, center, radius, count, rng):
        """Around an exact center: the samples around its float value, as exact points."""
        if type(center) is not ExactPoint:
            return vector_sample_ball(self, center, radius, count, rng)
        return [ExactPoint.from_floats(p)
                for p in vector_sample_ball(self, center.to_float(), radius, count, rng)]

    def point_from_json(self, obj):
        p = real_array(obj)
        if p.shape != (self.coordinate_dim,):
            raise ValueError(
                f"{self.name} expects {self.coordinate_dim} coordinates, got {obj!r}")
        return p

    def point_to_list(self, p) -> list:
        return [float(c) for c in np.asarray(p).ravel()]

    def to_exact(self, p):
        if type(p) is ExactPoint:
            return p
        return ExactPoint.from_floats(p)

    def coordinate_gap(self, p, q) -> float:
        if type(p) in EXACT_TYPES:
            A, da, B, db = _exact_operands(p, q)
            gaps = [sup([abs(a / da - b / db) for a, b in zip(r, s)]) for r, s in zip(A, B)]
            return gaps[0] if type(p) is type(q) is ExactPoint else np.array(gaps)
        return sup(np.abs(p - q), axis=None if p.ndim == q.ndim == 1 else 1)

    def single_point_kernels(self, points, scales):
        """1-D float points as lists and ``float`` scales as floats, under the kernels
        that CarnotModel's ``dilate``, ``distance`` and ``coordinate_gap`` run."""
        if (float_points(points) and all(p.ndim == 1 for p in points)
                and all(type(e.value) is float for e in scales)
                and self._own("dilate", "distance", "coordinate_gap")):
            return ([p.tolist() for p in points], [e.value for e in scales], self._dilate_point,
                    lambda p, q: self._norm(self._inverse_product(p, q)), _list_gap, np.array)
        return super().single_point_kernels(points, scales)

    def product_of(self, a, terms):
        """A 1-D float point times the rows of a float batch: ``_product`` folded
        over their Python floats, as CarnotModel's ``group_product`` takes them."""
        if (float_points([a, terms]) and a.ndim == 1 and terms.ndim == 2
                and self._own("group_product")):
            out = a.tolist()
            for t in terms.tolist():
                out = self._product(out, t)
            return np.array(out)
        return super().product_of(a, terms)

    def _own(self, *names) -> bool:
        """True while each named method is CarnotModel's own, not overridden or wrapped."""
        return all(getattr(getattr(self, name), "__func__", None) is vars(CarnotModel)[name]
                   for name in names)

    # --- the float formulas and the gauges ----------------------------------

    def _rows_dilate(self, x, eps: Scale, y):
        prod = self._product
        return stack(prod(columns(x), self._dilate(eps, prod(columns(-x), columns(y)))))

    def _dilate(self, eps: Scale, A):
        e = eps.value
        # an (N, 1) per-row scale takes its layer factors per row
        f = self._scales(e[:, 0] if isinstance(e, np.ndarray) else e)
        return [a * f[i] for a, i in zip(A, self._layer_index)]

    def _norm(self, a) -> float:
        if type(a) is list:
            # a single point's Python floats: a one-coordinate layer is a Python
            # square, rounded as its length-1 dot is; a longer layer keeps np.dot,
            # whose BLAS sum fuses multiply and add, as a Python float so that **
            # is Python's power, not numpy's
            return sup([(a[sl.start] * a[sl.start] if sl.stop - sl.start == 1
                         else dot_square(a[sl])) ** (0.5 / i)
                        for i, sl in enumerate(self._slices, start=1)])
        layers = [power(row_dot(b, b), 0.5 / i)
                  for i, b in enumerate((a[:, sl] for sl in self._slices), start=1)]
        return sup(np.array(layers), axis=0)

    def _exact_norm(self, a) -> float:
        return sup(a.sumsq(sl) ** (0.5 / i) for i, sl in enumerate(self._slices, start=1))

    def _check_jacobi(self):
        # the double brackets of integer basis vectors are integers over h^2,
        # held to JACOBI_TOL = tn / td exactly
        def br(A, B):
            out = [0] * self.dim
            for i, j, k, _, n in self._entries:
                out[k] += n * (A[i] * B[j] - A[j] * B[i])
            return out

        tn, td = JACOBI_TOL.as_integer_ratio()
        bound = tn * self._bracket_den ** 2
        basis = np.eye(self.dim, dtype=int).tolist()
        for i, j, k in itertools.combinations(range(self.dim), 3):
            a, b, c = basis[i], basis[j], basis[k]
            res = [x + y + z for x, y, z in zip(br(a, br(b, c)), br(b, br(c, a)), br(c, br(a, b)))]
            if any(abs(r) * td > bound for r in res):
                raise ModelError(f"Jacobi identity fails on basis triple ({i},{j},{k})")

    def subadditivity_constant(self, samples: int = 200, seed: int = 0) -> float:
        """Empirical sup of |a.b| / (|a| + |b|) over a seeded sample.

        The max-type gauge is a quasi-norm; this reports how far it is from
        subadditive on the sampled range instead of asserting the constant 1.
        """
        rng = np.random.default_rng(seed)
        pairs = ((rng.uniform(-1.0, 1.0, self.dim), rng.uniform(-1.0, 1.0, self.dim))
                 for _ in range(samples))
        return sup(self.homogeneous_norm(self.group_product(a, b)) / denom for a, b in pairs
                   if (denom := self.homogeneous_norm(a) + self.homogeneous_norm(b)) > 0)


def heisenberg_structure_constants(n: int = 1):
    """Step-2 layer/bracket data reproducing H(n) on the graded basis."""
    layers = [2 * n, 1]
    brackets = [[i, n + i, 2 * n, 1.0] for i in range(n)]
    return layers, brackets


def engel_structure_constants():
    """The step-3 filiform example: [e0,e1] = e2, [e0,e2] = e3."""
    return [2, 1, 1], [[0, 1, 2, 1.0], [0, 2, 3, 1.0]]
