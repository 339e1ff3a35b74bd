"""Bi-invariant form and left-invariant metrics on an oscillator algebra.

The canonical form k has Gram entries k(e_-1, e_0) = 1 and
k(e_j, e_j) = k(ec_j, ec_j) = 1/l_j; it is ad-invariant and of index 1.
A left-invariant metric is encoded by an invertible linear map u that is
k-symmetric (k(ux, y) = k(x, uy), equivalently Gram @ u symmetric); the
metric is k_u(x, y) = k(u(x), y).  ``k_symmetry_residual`` measures
k-symmetry in the frame w_i e_i, w = (1, 1, sqrt(l_1..l_n), sqrt(l_1..l_n)),
where k's Gram entries are 0 or 1: entry (i, j) of Gram @ u is scaled by w_i w_j."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import LambdaSpec, _as_elem, _row_bilinear, bracket, check_json_numbers

# Acceptance tolerance for k-symmetry, on ``k_symmetry_residual``.
K_SYMMETRY_TOL = 1e-10
# Tolerance used when testing whether u stabilizes a distinguished subspace.
STABILITY_TOL = 1e-10
# Tolerance of the diagonal family's local-symmetry conditions (a) and (b).
LOCSYM_TOL = 1e-9

COMPLETE_CENTER = "complete_center"
COMPLETE_CARTAN = "complete_cartan"
UNDETERMINED = "undetermined"


class NotKSymmetric(ValueError):
    pass


class DegenerateMetric(ValueError):
    pass


@dataclass(frozen=True)
class BiInvariantForm:
    spec: LambdaSpec
    gram: np.ndarray

    def value(self, x, y) -> float:
        x, y = _as_elem(self.spec, x), _as_elem(self.spec, y)
        return float(x @ self.gram @ y)


def k_lambda(spec: LambdaSpec) -> BiInvariantForm:
    """Gram matrix of the canonical bi-invariant form."""
    d, n = spec.dim, spec.n
    g = np.zeros((d, d))
    g[0, 1] = g[1, 0] = 1.0
    for j in range(1, n + 1):
        g[spec.e_index(j), spec.e_index(j)] = 1.0 / spec.lambdas[j - 1]
        g[spec.ec_index(j), spec.ec_index(j)] = 1.0 / spec.lambdas[j - 1]
    g.setflags(write=False)
    return BiInvariantForm(spec, g)


def ad_invariance_residual(form: BiInvariantForm, seed: int = 0) -> float:
    """Worst |k([x,y],z) + k(y,[x,z])| over 200 random unit-scale triples."""
    spec, gram = form.spec, form.gram
    x, y, z = np.random.default_rng(seed).standard_normal((200, 3, spec.dim)).transpose(1, 0, 2)
    r = _row_bilinear(bracket(spec, x, y), gram, z) + _row_bilinear(y, gram, bracket(spec, x, z))
    return float(np.max(np.abs(r)))


@dataclass(frozen=True)
class SymIso:
    """A linear map u, the datum of a left-invariant metric once metric_from_iso accepts it."""

    spec: LambdaSpec
    matrix: np.ndarray
    kind: str = "matrix"
    params: dict = field(default_factory=dict)

    @cached_property
    def cond(self) -> float:
        return float(np.linalg.cond(self.matrix))

    @cached_property
    def inv(self) -> np.ndarray:
        m = np.linalg.inv(self.matrix)
        m.setflags(write=False)
        return m


def k_symmetry_residual(form: BiInvariantForm, matrix: np.ndarray) -> float:
    """max|Gram@u - (Gram@u)^T| in the frame of the module docstring."""
    s = form.gram @ matrix
    w = np.concatenate([[1.0, 1.0], np.sqrt(form.spec.lam), np.sqrt(form.spec.lam)])
    return float(np.max(np.abs((s - s.T) * w[:, None] * w)))


@dataclass(frozen=True)
class Metric:
    """Left-invariant metric k_u with its Gram matrix and index."""

    form: BiInvariantForm
    iso: SymIso
    gram_u: np.ndarray
    index: int

    @property
    def spec(self) -> LambdaSpec:
        return self.form.spec

    @property
    def lorentzian(self) -> bool:
        return self.index == 1

    def value(self, x, y) -> float:
        spec = self.spec
        return float(_as_elem(spec, x) @ self.gram_u @ _as_elem(spec, y))


def metric_from_iso(form: BiInvariantForm, iso: SymIso) -> Metric:
    """Build k_u from a k-symmetric isomorphism; rejects bad input loudly."""
    if iso.spec is not form.spec and iso.spec != form.spec:
        raise ValueError("isomorphism and form belong to different specs")
    # Non-finite entries, or entries near the float range, give a non-finite
    # Gram matrix: it is rejected below instead of warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        res = k_symmetry_residual(form, iso.matrix)
        s = form.gram @ iso.matrix
        gram_u = 0.5 * (s + s.T)
    if not np.isfinite(gram_u).all():
        raise ValueError("isomorphism entries must be finite"
                         if not np.isfinite(iso.matrix).all()
                         else "gram matrix of k_u overflows the float range")
    if res > K_SYMMETRY_TOL:
        raise NotKSymmetric(f"{iso.kind} is not k-symmetric: residual {res:.3e} "
                            f"exceeds {K_SYMMETRY_TOL:.1e}")
    w = np.linalg.eigvalsh(gram_u)
    scale = float(np.max(np.abs(w)))
    if scale == 0.0 or float(np.min(np.abs(w))) <= 1e-12 * scale:
        raise DegenerateMetric("gram matrix of k_u is singular; u must be invertible")
    try:  # k_u passes where u fails k-symmetry by less than K_SYMMETRY_TOL
        iso.inv
    except np.linalg.LinAlgError as err:
        raise DegenerateMetric(f"u is singular ({err}); u must be invertible") from err
    gram_u.setflags(write=False)
    index = int(np.sum(w < 0.0))
    return Metric(form, iso, gram_u, index)


def signature(metric: Metric) -> tuple[int, int]:
    """Eigenvalue sign counts (positive, negative) of the Gram matrix of k_u,
    read off the index that ``metric_from_iso`` counted when it accepted it."""
    return metric.spec.dim - metric.index, metric.index


# -- named families -----------------------------------------------------------

def _u1_dim4() -> np.ndarray:
    m = np.zeros((4, 4))  # e_-1 -> e_1, e_0 -> e_-1, e_1 -> e_0, ec_1 -> ec_1
    m[[2, 0, 1, 3], range(4)] = 1.0
    return m


def _u2_dim4() -> np.ndarray:
    m = np.zeros((4, 4))  # e_-1 -> ec_1, e_0 -> e_1, e_1 -> e_-1, ec_1 -> e_0
    m[[3, 2, 0, 1], range(4)] = 1.0
    return m


def named_family(spec: LambdaSpec, name: str, **params) -> SymIso:
    """Construct u for one of the named metric families.  Only shapes are checked
    here: u is validated when a Metric is built from it (``metric_from_iso``).

    diagonal_sym: u(e_0) = e_0, u(e_-1) = e_-1 + rho*e_0, u(e_i) = eta_i e_i,
        u(ec_i) = etc_i ec_i. Parameters eta, eta_check (length n), rho (default 0).
    u1_dim4 / u2_dim4: the two incomplete dim-4 examples (metrics at lambda = (1,)).
    lattice_dim4: identity except u(e_-1) = e_-1 + alpha*e_0 (require n = 1).
    direct_sum: dim-4 core u1 or u2 on the first oscillator pair plus 2x2
        blocks on each remaining (e_j, ec_j) plane.
    """
    d, n = spec.dim, spec.n
    if name == "diagonal_sym":
        eta = np.asarray(params.get("eta", np.ones(n)), dtype=float)
        etc = np.asarray(params.get("eta_check", np.ones(n)), dtype=float)
        rho = float(params.get("rho", 0.0))
        if eta.shape != (n,) or etc.shape != (n,):
            raise ValueError(f"eta and eta_check must have length {n}")
        m = np.zeros((d, d))
        m[0, 0] = 1.0
        m[1, 0] = rho
        m[1, 1] = 1.0
        for j in range(1, n + 1):
            m[spec.e_index(j), spec.e_index(j)] = eta[j - 1]
            m[spec.ec_index(j), spec.ec_index(j)] = etc[j - 1]
        return SymIso(spec, m, "diagonal_sym",
                      {"eta": tuple(eta), "eta_check": tuple(etc), "rho": rho})
    if name in ("u1_dim4", "u2_dim4"):
        if n != 1:
            raise ValueError(f"{name} lives on the dim-4 oscillator, got n={n}")
        return SymIso(spec, _u1_dim4() if name == "u1_dim4" else _u2_dim4(), name)
    if name == "lattice_dim4":
        if n != 1:
            raise ValueError(f"lattice_dim4 lives on the dim-4 oscillator, got n={n}")
        alpha = float(params.get("alpha", 1.0))
        m = np.eye(d)
        m[1, 0] = alpha
        return SymIso(spec, m, "lattice_dim4", {"alpha": alpha})
    if name == "direct_sum":
        core = params.get("core", "u2")
        if core not in ("u1", "u2"):
            raise ValueError(f'direct_sum core must be "u1" or "u2", got {core!r}')
        if n < 2:
            raise ValueError("direct_sum needs at least two oscillator pairs")
        blocks = params.get("blocks")
        if blocks is None or len(blocks) != n - 1:
            raise ValueError(f"direct_sum needs {n - 1} 2x2 blocks for j=2..{n}")
        m = np.zeros((d, d))
        core_m = _u1_dim4() if core == "u1" else _u2_dim4()
        core_idx = [0, 1, spec.e_index(1), spec.ec_index(1)]
        m[np.ix_(core_idx, core_idx)] = core_m
        for off, blk in enumerate(blocks):
            blk = np.asarray(blk, dtype=float)
            if blk.shape != (2, 2):
                raise ValueError(f"block {off + 2} must be a 2x2 matrix")
            j = off + 2
            idx = [spec.e_index(j), spec.ec_index(j)]
            m[np.ix_(idx, idx)] = blk
        frozen = tuple(tuple(map(tuple, np.asarray(b, dtype=float))) for b in blocks)
        return SymIso(spec, m, "direct_sum", {"core": core, "blocks": frozen})
    raise ValueError(f"unknown metric family {name!r}")


def locsym_conditions(iso: SymIso) -> tuple[str | None, ...]:
    """Per oscillator index, which diagonal-family condition holds, to
    LOCSYM_TOL: 'a' when eta_i + etc_i = 1, 'b' when eta_i = etc_i, else None."""
    if iso.kind != "diagonal_sym":
        raise ValueError("condition flags only apply to the diagonal_sym family")
    eta = np.asarray(iso.params["eta"])
    etc = np.asarray(iso.params["eta_check"])
    out = []
    for h, hc in zip(eta, etc):
        if abs(h + hc - 1.0) <= LOCSYM_TOL:
            out.append("a")
        elif abs(h - hc) <= LOCSYM_TOL:
            out.append("b")
        else:
            out.append(None)
    return tuple(out)


def parse_sym_iso(spec: LambdaSpec, obj) -> SymIso:
    """Parse the JSON metric descriptor.

    Accepted kinds: diagonal_sym {eta, eta_check, rho?}, u1_dim4, u2_dim4,
    lattice_dim4 {alpha?}, matrix {rows}.  A parameter that is not a number
    or a list of numbers (true, "1", null, an object) is a ValueError.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError('metric descriptor must be an object with a "kind" field')
    kind = obj["kind"]
    check_json_numbers(obj, f"{kind} descriptor", scalars=("rho", "alpha"),
                       arrays=("eta", "eta_check", "rows"))
    if kind == "diagonal_sym":
        missing = [k for k in ("eta", "eta_check") if k not in obj]
        if missing:
            raise ValueError(f"diagonal_sym descriptor missing {missing}")
        return named_family(spec, "diagonal_sym", eta=obj["eta"],
                            eta_check=obj["eta_check"], rho=obj.get("rho", 0.0))
    if kind in ("u1_dim4", "u2_dim4"):
        return named_family(spec, kind)
    if kind == "lattice_dim4":
        return named_family(spec, "lattice_dim4", alpha=obj.get("alpha", 1.0))
    if kind == "matrix":
        m = np.asarray(obj.get("rows", []), dtype=float)
        if m.shape != (spec.dim, spec.dim):
            raise ValueError(f'matrix descriptor needs "rows" of shape {spec.dim}x{spec.dim}')
        return SymIso(spec, m, "matrix")
    raise ValueError(f"unknown metric kind {kind!r}")


def _stable_column(col: np.ndarray, keep_rows) -> bool:
    mask = np.ones(col.shape, dtype=bool)
    mask[list(keep_rows)] = False
    scale = max(1.0, float(np.max(np.abs(col))))
    return float(np.max(np.abs(col[mask]))) <= STABILITY_TOL * scale


def stabilizes_cartan(m: np.ndarray) -> bool:
    """Whether the matrix m maps the canonical Cartan subalgebra
    span{e_-1, e_0} into itself, to STABILITY_TOL."""
    return _stable_column(m[:, 0], (0, 1)) and _stable_column(m[:, 1], (0, 1))


def completeness_criteria(iso: SymIso | np.ndarray) -> str:
    """Sufficient-condition verdict for geodesic completeness of k_u.

    complete_center when u maps span{e_0} into itself, complete_cartan when
    u stabilizes the canonical Cartan subalgebra span{e_-1, e_0}; otherwise
    undetermined (no conclusion, not a claim of incompleteness).
    """
    m = iso.matrix if isinstance(iso, SymIso) else np.asarray(iso, dtype=float)
    if _stable_column(m[:, 1], (1,)):
        return COMPLETE_CENTER
    return COMPLETE_CARTAN if stabilizes_cartan(m) else UNDETERMINED


def random_k_symmetric(spec: LambdaSpec, rng: np.random.Generator,
                       index: int | None = None, fix_center_line: bool = False) -> SymIso:
    """Random k-symmetric invertible u, optionally with prescribed metric index.

    Since Gram(k_u) = Gram(k) @ u, sampling a symmetric matrix S with the
    wanted eigenvalue signs and setting u = Gram^-1 S yields a k-symmetric u
    whose metric has exactly that signature. With ``fix_center_line`` the
    sample additionally satisfies u(e_0) in R e_0 (rejection on the index).
    """
    d = spec.dim
    gram = k_lambda(spec).gram
    lo, hi = 0.3, 3.0  # range of the eigenvalue magnitudes of S
    if not fix_center_line:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        mags = rng.uniform(lo, hi, size=d)
        signs = np.ones(d)
        neg = rng.choice(d, size=index, replace=False) if index is not None else \
            np.flatnonzero(rng.random(d) < 0.5)
        signs[neg] = -1.0
        s = (q * (signs * mags)) @ q.T
        s = 0.5 * (s + s.T)
        u = np.linalg.solve(gram, s)
        return SymIso(spec, u, "random", {"index": index})
    # u(e_0) = nu e_0 forces S[:, e_0-column] proportional to Gram @ e_0.
    for _ in range(10_000):
        s = np.zeros((d, d))
        nu = rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])
        s[0, 1] = s[1, 0] = nu
        s[0, 0] = rng.uniform(-hi, hi)
        a = rng.standard_normal((d - 2, d - 2))
        s[2:, 2:] = a @ a.T / np.sqrt(d - 2) + 0.5 * np.eye(d - 2)
        s[0, 2:] = s[2:, 0] = 0.3 * rng.standard_normal(d - 2)
        w = np.linalg.eigvalsh(s)
        if float(np.min(np.abs(w))) < 1e-6 * float(np.max(np.abs(w))):
            continue
        if index is not None and int(np.sum(w < 0)) != index:
            continue
        u = np.linalg.solve(gram, s)
        return SymIso(spec, u, "random_center_line", {"index": index})
    raise RuntimeError("rejection sampling failed to find a matching metric")
