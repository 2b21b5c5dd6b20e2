"""Generic stratified (Carnot) groups of step at most three.

The model is specified by layer dimensions and the structure constants of a
graded Lie bracket on the basis.  Identifying the group with its algebra,
the product is the Baker-Campbell-Hausdorff polynomial, which terminates for
nilpotent brackets; through step three it is exactly

    a . b = a + b + [a,b]/2 + [a,[a,b]]/12 - [b,[a,b]]/12.

Dilatations act as eps^i on the i-th layer.  The shipped homogeneous gauge
is the max-type quasi-norm max_i |a_i|^{1/i}; it is exactly homogeneous but
only subadditive up to a constant, which can be estimated empirically.

Every vector group model of the lab is a ``CarnotModel``: Euclidean space is
step 1 with no brackets, H(n) and C x R are step 2.  The subclasses keep
their own gauge; on exact points all of them share the integer kernel below,
``_exact_bracket``, ``_exact_product`` and the expanded ``dilate``.  The
ambient dilatation is derived, not declared: delta_eps = delta^e_eps, the
dilatation based at the identity e.

The float kernels are generated once per model from its bracket table and
layer factors (``_compiled_product``): the product, on Python floats for a
point and on column views for a batch, and for single points the dilate and
the (-p) . q of a distance.  Euclidean space writes its batch primitives as
whole-row numpy arithmetic: the same IEEE operations in the same order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from dilatation_lab.config import JACOBI_TOL
from dilatation_lab.errors import ModelError
from dilatation_lab.core.reports import sup
from dilatation_lab.core.scales import POSITIVE_REALS, Scale
from dilatation_lab.core.structure import vector_sample_ball
from dilatation_lab.models.base import (
    ExactPoint, GroupModel, columns, dot_square, is_integer, is_real, power, real_array, row_dot,
    stack)


def _scale_ratio(value) -> tuple[int, int]:
    """A real rational scale as (numerator, positive denominator)."""
    try:
        return value.as_integer_ratio()
    except AttributeError:
        raise TypeError(f"exact points take a real rational scale, got {value!r}") from None


def _exact_pair(a: ExactPoint, b):
    """The numerators and denominators of a and b; TypeError if b is not exact."""
    if type(b) is not ExactPoint:
        raise TypeError(f"exact points do not mix with floats, got {b!r}")
    return a.num, a.den, b.num, b.den


def _compiled_product(dim: int, step: int, entries, layer_index, scales):
    """The float kernels of a bracket table, generated in one ``exec`` as
    ``dataclasses`` generates methods:

    * ``_product(A, B)``, on Python floats or on the columns of a batch;
    * ``_inverse_product(X, B)``, (-x) . b on Python floats, for ``distance``;
    * ``_dilate_point(X, e, Y)``, x . delta_e((-x) . y) on Python floats;
    * ``_scales(e, pow)``, the layer factors, for ``_dilate``.

    ``scales[i]`` is layer i's factor as source text in e, and
    ``layer_index`` each coordinate's layer.  Each constant is its ``repr``,
    which reads back as the same float, and a 1.0 is left out, since 1.0 * x
    is x.  Each coordinate holds only its table's terms: a_k + b_k, then a
    bracket sum from its first term in table order, then a 1/12 term if it
    has a double bracket; a zero sum keeps its IEEE sign, -0.0 + -0.0 stays
    -0.0 on layer 1."""

    def bracket(u, v):
        # the table's terms of [u, v] per coordinate; a None in v is 0 and drops
        # its product, as [a, b] does on layer 1, where a graded i < j puts e_i
        out = [[] for _ in range(dim)]
        for i, j, k, c, _ in entries:
            if v[j]:
                minus = f" - {u[j]} * {v[i]}" if v[i] else ""
                t = f"({u[i]} * {v[j]}{minus})"
                out[k].append(t if c == 1.0 else f"{c!r} * {t}")
        return [" + ".join(t) for t in out]

    def product(u, v):
        # the lines that name the brackets of u . v, and its coordinates
        uv = bracket(u, v)
        z = [f"z{k}" if t else None for k, t in enumerate(uv)]
        terms = [f"{x} + {y}" + (f" + {w} * 0.5" if w else "") for x, y, w in zip(u, v, z)]
        if step == 3:
            terms = [f"{t} + (({p}) - ({q})) * (1.0 / 12.0)" if p else t
                     for t, p, q in zip(terms, bracket(u, z), bracket(v, z))]
        return [f"{w} = {e}" for w, e in zip(z, uv) if w], terms

    a, b, x, y, t = ([f"{n}{i}" for i in range(dim)] for n in "abxyt")
    f = [f"f{i}" for i in layer_index]
    lines, terms = product(a, b)
    negate = f"{', '.join(a)} = {', '.join('-' + n for n in x)}"
    inner, scaled = product(a, y)
    outer, result = product(x, t)
    functions = [
        ["def _product(A, B):", f"{', '.join(a)}, = A", f"{', '.join(b)}, = B",
         *lines, f"return [{', '.join(terms)}]"],
        ["def _inverse_product(X, B):", f"{', '.join(x)}, = X", f"{', '.join(b)}, = B",
         negate, *lines, f"return [{', '.join(terms)}]"],
        ["def _dilate_point(X, e, Y):", f"{', '.join(x)}, = X", f"{', '.join(y)}, = Y",
         negate, *(f"f{i} = {s}" for i, s in enumerate(scales)), *inner,
         *(f"{n} = ({c}) * {g}" for n, c, g in zip(t, scaled, f)),
         *outer, f"return [{', '.join(result)}]"],
        ["def _scales(e, pow=pow):", f"return {', '.join(scales)},"]]
    namespace = {}
    exec("\n".join("\n    ".join(source) for source in functions), namespace)
    return [namespace[n] for n in ("_product", "_inverse_product", "_dilate_point", "_scales")]


class CarnotModel(GroupModel):
    """Graded nilpotent group from layer dimensions and bracket constants.

    brackets is a list of entries [i, j, k, c] declaring [e_i, e_j] = ... + c e_k
    with 0-based indices into the full graded basis and c finite.  They add up
    in one table, an entry per pair i < j and output k ([j, i, k, c] adds -c),
    which the compiled float product and ``_exact_bracket`` both walk, so
    [a, a] is exactly 0.

    Points are flat numpy coordinate vectors.  Single float points take the
    kernels compiled from the table at construction, on Python floats: the
    product, ``dilate`` under a Python ``float`` scale, and (-p) . q, which the
    gauge ``_norm`` of ``distance`` reads as those floats.  The rest (batches,
    a point beside a batch, any other scale) takes ``_product`` and
    ``_dilate`` on the ``columns`` of a point or of an ``(N, dim)`` batch,
    which ``stack`` makes a point or a batch again; ``_dilate`` also takes a
    per-row scale, whose value is an ``(N, 1)`` array.  ``LAYER_SCALES``
    declares each layer's factor once for both paths.  Exact points
    (``ExactPoint``) take the integer kernel, ``_exact_bracket``,
    ``_exact_product`` and the expanded ``dilate``, and the gauge
    ``_exact_norm``.  The group inverse is negation in either arithmetic.  On
    exact points of every step ``dilate`` is one expanded integer formula,
    which builds no kernel product, and ``ambient_dilate`` is that formula
    based at the identity, delta_eps = delta^e_eps.  Subclasses override
    ``LAYER_SCALES`` and the gauges, C x R ``_dilate`` for its complex scales,
    and Euclidean space ``_rows_dilate``, ``group_product`` and
    ``ambient_dilate`` with whole rows.  None overrides the kernels.
    """

    # each layer's dilatation factor as source text in the scale e: Python's
    # e ** k, written pow(e, k) so that a per-row scale takes it per element
    # (power), as numpy's power does not round it; layer 1 is e, e ** 1's value
    LAYER_SCALES = ("e", "pow(e, 2)", "pow(e, 3)")

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
        self._product, self._inverse_product, self._dilate_point, self._scales = _compiled_product(
            self.dim, self.step, self._entries, self._layer_index, self.LAYER_SCALES[:self.step])
        self._check_jacobi()

    @property
    def homogeneous_dimension(self) -> int:
        return sum(i * d for i, d in enumerate(self.layers, start=1))

    # --- group surface: one type check picks the arithmetic ------------------

    def identity(self):
        return np.zeros(self.coordinate_dim)

    def group_product(self, a, b):
        if type(a) is ExactPoint:
            return self._exact_product(a, b)
        if type(b) is np.ndarray and a.ndim == b.ndim == 1:
            return np.array(self._product(a.tolist(), b.tolist()))
        return stack(self._product(columns(a), columns(b)))

    def group_inverse(self, a):
        return -a

    def ambient_dilate(self, eps: Scale, a):
        if type(a) is ExactPoint:
            return self.dilate(ExactPoint((0,) * self.dim), eps, a)
        return stack(self._dilate(eps, columns(a)))

    def dilate(self, x, eps: Scale, y):
        """x . delta_eps(x^-1 y); on exact points the expanded form, layer by layer,

            (1-eps) x_1 + eps y_1,
            (1-eps^2) x_2 + eps^2 y_2 + (eps-eps^2)/2 [x,y],
            (1-eps^3) x_3 + eps^3 y_3 + ((eps^2-eps^3) [x,y] + (eps-eps^2) [x-y,x_2])/2
                + (eps (1-eps)^2 [x,[x,y]] - eps^2 (1-eps) [y,[x,y]])/12,

        where x_2 is the layer-2 part of x."""
        if type(x) is not ExactPoint:
            e = eps.value
            if type(e) is float and type(y) is np.ndarray and x.ndim == y.ndim == 1:
                return np.array(self._dilate_point(x.tolist(), e, y.tolist()))
            return self._rows_dilate(x, eps, y)
        # with eps = p/q, layers 1 and 2 over the denominator 2 h q^2 dx dy;
        # [x,y] is 0 on layer 1
        p, q = _scale_ratio(eps.value)
        X, dx, Y, dy = _exact_pair(x, y)
        h, c = self._bracket_den, p * (q - p)
        s = 2 * h
        xs = [s * q * (q - p) * dy, s * (q * q - p * p) * dy]
        ys = [s * q * p * dx, s * p * p * dx]
        XY = self._exact_bracket(X, Y)
        terms = zip(self._layer_index, X, Y, XY)
        if self.step < 3:
            return ExactPoint([xs[i] * a + ys[i] * b + c * z for i, a, b, z in terms],
                              s * q * q * dx * dy)
        # step 3 over 12 h^2 q^3 dx^2 dy^2, which is m times the above; the
        # last four brackets, the [x-y,x_2] and the /12 terms, are 0 below layer 3
        m, t = 6 * h * q * dx * dy, 12 * h * h * dx * dy
        xs = [m * xs[0], m * xs[1], t * (q * q * q - p * p * p) * dy]
        ys = [m * ys[0], m * ys[1], t * p * p * p * dx]
        zs = [m * c, m * c, 6 * h * dx * dy * p * c]
        X2 = [a if i == 1 else 0 for i, a in zip(self._layer_index, X)]
        br, g = self._exact_bracket, 6 * h * q * c * dy
        return ExactPoint(
            [xs[i] * a + ys[i] * b + zs[i] * z + g * (dy * w - dx * v)
             + c * ((q - p) * dy * u - p * dx * r)
             for (i, a, b, z), w, v, u, r in zip(terms, br(X, X2), br(Y, X2),
                                                 br(X, XY), br(Y, XY))],
            m * s * q * q * dx * dy)

    def homogeneous_norm(self, a) -> float:
        if type(a) is ExactPoint:
            return self._exact_norm(a)
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
        if type(p) is ExactPoint:
            A, da, B, db = _exact_pair(p, q)
            return sup([abs(a / da - b / db) for a, b in zip(A, B)])
        if type(q) is np.ndarray and p.ndim == q.ndim == 1:
            return sup([abs(a - b) for a, b in zip(p.tolist(), q.tolist())])
        return sup(np.abs(p - q), axis=1)

    # --- the float formulas and the gauges ----------------------------------

    def _rows_dilate(self, x, eps: Scale, y):
        prod = self._product
        return stack(prod(columns(x), self._dilate(eps, prod(columns(-x), columns(y)))))

    def _dilate(self, eps: Scale, A):
        e = eps.value
        # an (N, 1) per-row scale takes its layer factors per row, a pow as
        # Python's ** per element
        f = self._scales(e[:, 0], power) if isinstance(e, np.ndarray) else self._scales(e)
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

    # --- the exact kernel: integer numerators over one denominator ----------

    def _exact_bracket(self, A, B):
        out = [0] * self.dim
        for i, j, k, _, n in self._entries:
            out[k] += n * (A[i] * B[j] - A[j] * B[i])
        return out

    def _check_jacobi(self):
        # the double brackets of integer basis vectors are integers over h^2,
        # held to JACOBI_TOL = tn / td exactly
        tn, td = JACOBI_TOL.as_integer_ratio()
        bound = tn * self._bracket_den ** 2
        basis = np.eye(self.dim, dtype=int).tolist()
        br = self._exact_bracket
        for i, j, k in itertools.combinations(range(self.dim), 3):
            a, b, c = basis[i], basis[j], basis[k]
            res = [x + y + z for x, y, z in zip(br(a, br(b, c)), br(b, br(c, a)), br(c, br(a, b)))]
            if any(abs(r) * td > bound for r in res):
                raise ModelError(f"Jacobi identity fails on basis triple ({i},{j},{k})")

    def _exact_product(self, a: ExactPoint, b: ExactPoint) -> ExactPoint:
        A, da, B, db = _exact_pair(a, b)
        if self.step == 1:
            if da == db:
                return ExactPoint([x + y for x, y in zip(A, B)], da)
            return ExactPoint([x * db + y * da for x, y in zip(A, B)], da * db)
        h = self._bracket_den
        AB = self._exact_bracket(A, B)
        if self.step == 2:
            # a + b + [a,b]/2 over the denominator 2 h da db
            s = 2 * h
            return ExactPoint([s * (x * db + y * da) + z for x, y, z in zip(A, B, AB)],
                              s * da * db)
        # a + b + [a,b]/2 + ([a,[a,b]] - [b,[a,b]])/12 over 12 h^2 da^2 db^2
        s = 6 * h * da * db
        t = 2 * h * s
        return ExactPoint(
            [t * (x * db + y * da) + s * z + db * p - da * q
             for x, y, z, p, q in zip(A, B, AB, self._exact_bracket(A, AB),
                                      self._exact_bracket(B, AB))],
            t * da * db)

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
