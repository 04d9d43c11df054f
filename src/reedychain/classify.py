"""Decidable classifiers for maps of truncated simplicial objects.

Every predicate reduces to exact rank computations on the normal form of
f.  Over a field every simplicial object splits (Dold-Kan), so
``classify`` builds the normalized totals of both ends and the level maps
N_nf: X_n/D_nX -> Y_n/D_nY between them once, and reads all four of its
own verdicts off them.  A failing classifier comes with a witness locating
the first level and degree where the defect appears, and it is the
witness of the full levels, for three reasons (Goerss-Jardine III.2):

- f_n is naturally the sum of the N_kf over the surjections [n] -> [k], so
  at the first level where f_n is not a quasi-isomorphism (or not
  injective, or not onto) only N_nf fails, and in the same degree;
- N is exact, so the fiber F = ker f of a levelwise onto f has the
  normalized levels N_kF = ker N_kf;
- at the first k >= 1 where H(N_kF) is nonzero every face of F_k fails,
  d_0 first; d_0 is split by s_0, so cone(d_0) ~ (ker d_0)[1] has the
  homology of N_kF shifted up by one.

The latching map is the inclusion of the degeneracy span D_nX, so by the
first reason the Reedy cofibrations are the levelwise monos.  The matching
map fits into Moore's exact sequence

    0 -> Z_nX -> X_n -> M_nX -> H_{n-1}X -> 0

with Z_nX the intersection of the kernels of all faces and H_{n-1} the
homology of the Moore complex (May, Simplicial Objects, 17).  Comparing it
with the sequence of Y shows that the relative matching map
X_n -> Y_n x_{M_nY} M_nX is onto iff f maps Z_nX onto Z_nY and, for n >= 1,
H_{n-1}X -> H_{n-1}Y is injective, degree by degree.  The Moore complex is
naturally isomorphic to the normalized one, so both are read off the totals.

A Reedy fibration is equifibered when each face square
X_{m+1} -> X_m x_{Y_m} Y_{m+1} is homotopy cartesian.  Every f_m is onto,
so the cone of the square has the homology of the cone of d_i on F, and
equifibered means that F is homotopically constant (chain complexes over
a field are stable; Hovey, Model Categories, ch. 7).  By the last two
reasons the first failing square is (k - 1, 0, 1 + the least degree of
H(ker N_kf)) at the first k >= 1 where that homology is nonzero.
"""

from dataclasses import dataclass

from . import sobj as so
from . import ssets as ss
from . import totals as tt
from .chain import (
    ChainMap,
    SpanResult,
    epi_witness,
    homology_dims,
    invert_map,
    is_iso,
    kernel_complex,
    mono_witness,
    pullback,
    pullback_mediator,
    quasi_iso_witness,
)
from .errors import InternalInvariantError, ValidationFailure
from .linalg import eye, hstack, kernel_basis
from .sobj import SimplicialMap


@dataclass(frozen=True)
class RelativeMatching:
    """X_n compared against Y_n constrained over M_nY by M_nX."""

    map: ChainMap
    span: SpanResult
    mx: so.Matching
    my: so.Matching


def relative_matching(f: SimplicialMap, n: int) -> RelativeMatching:
    mx, my = so.matching(f.source, n), so.matching(f.target, n)
    mf = so.matching_map_of(f, n, mx, my)
    span = pullback(my.from_level, mf)
    m = pullback_mediator(span, f.level(n), mx.from_level)
    return RelativeMatching(m, span, mx, my)


def _first_failing(maps, witness):
    """(level, degree) of the first level map that ``witness`` rejects."""
    for n, m in enumerate(maps):
        t = witness(m)
        if t is not None:
            return (n, t)
    return None


def level_we_witness(f: SimplicialMap):
    """(level, degree) of the first level that is not a quasi-isomorphism."""
    return _first_failing(f.levels, quasi_iso_witness)


def reedy_cof_witness(f: SimplicialMap):
    """(level, degree) of the first level map f_n that is not injective."""
    return _first_failing(f.levels, mono_witness)


def normal_form(f: SimplicialMap):
    """Both normalized totals of f and the level maps N_nf between them."""
    tx = tt.total_complex(f.source, "normalized")
    ty = tt.total_complex(f.target, "normalized")
    return tx, ty, tt.level_maps(f, tx, ty)


def _cycles(tot: tt.TotalComplex, n: int, t: int):
    """Basis of Z_n = ker d'_n at degree t, as columns over level n; Z_0 is
    all of level 0."""
    if n == 0:
        return eye(tot.levels[0].p, tot.levels[0].dim(t))
    return kernel_basis(tot.dprimes[n - 1].block(t))


def reedy_fib_witness(f: SimplicialMap, nf=None):
    """(level, degree) of the first failure of Moore's criterion: f maps
    Z_nX onto Z_nY and, for n >= 1, is injective on H_{n-1}.  Read off the
    normalized totals, which are naturally isomorphic to the Moore
    complexes level by level; a ``normal_form(f)`` passed in is used as
    given."""
    return _moore_criterion(*(normal_form(f) if nf is None else nf))


def _moore_criterion(tx: tt.TotalComplex, ty: tt.TotalComplex, fn: list[ChainMap]):
    for n in range(len(fn)):
        # a defect needs Z_nY or H_{n-1}X nonzero in its degree
        degs = set(ty.levels[n].degrees())
        if n >= 1:
            degs |= set(tx.levels[n - 1].degrees())
        for t in sorted(degs):
            zx = _cycles(tx, n, t)
            if (fn[n].block(t) @ zx).rank() != _cycles(ty, n, t).cols:
                return (n, t)
            if n == 0:
                continue
            # H_{n-1}X -> H_{n-1}Y is injective iff its image
            # (f Z_{n-1}X + B_{n-1}Y) / B_{n-1}Y has dim Z_{n-1}X - dim B_{n-1}X
            zx1 = _cycles(tx, n - 1, t)
            by = ty.dprimes[n - 1].block(t)
            image = hstack([fn[n - 1].block(t) @ zx1, by]).rank() - by.rank()
            if image != zx1.cols - tx.dprimes[n - 1].block(t).rank():
                return (n, t)
    return None


def face_square_witness(f: SimplicialMap, nf=None):
    """First (m, i, degree) where the comparison of X_{m+1} with the
    pullback X_m x_{Y_m} Y_{m+1} over the i-th face is not a
    quasi-isomorphism, read off the normalized fiber ker N_kf; a
    ``normal_form(f)`` passed in is used as given.  Refuses an f that is
    not onto at some level."""
    return _face_squares((normal_form(f) if nf is None else nf)[2])


def _face_squares(fn: list[ChainMap]):
    w = _first_failing(fn, epi_witness)
    if w is not None:
        raise ValidationFailure(
            f"face squares need f onto at every level; f_{w[0]} is not onto in degree {w[1]}"
        )
    return _first_nonconstant((kernel_complex(m)[0] for m in fn[1:]), first=0)


def _first_nonconstant(levels, first: int = 1):
    """(k, 0, degree) at the first of the normalized levels 1, 2, ... with
    homology, k counted from ``first``: d_0 fails there, one degree higher."""
    for k, lvl in enumerate(levels, start=first):
        h = homology_dims(lvl)
        if h:
            return (k, 0, 1 + min(h))
    return None


@dataclass(frozen=True)
class Classification:
    """Joint verdict of all classifiers on one map, with witnesses for
    the failing ones."""

    level_we: bool
    reedy_cof: bool
    reedy_fib: bool
    equifibered: bool
    realization: tt.RealizationResult
    reedy_trivial_cof: bool
    reedy_trivial_fib: bool
    witnesses: dict

    @property
    def realization_we(self) -> bool:
        return self.realization.we

    @property
    def realization_exact(self) -> bool:
        return self.realization.exact

    @property
    def realization_flag(self) -> str:
        return self.realization.flag


def jsonable_witness(w):
    """A witness with its tuples turned into lists, as reports carry it."""
    if isinstance(w, tuple):
        return [jsonable_witness(v) for v in w]
    return w


def classification_report(c: Classification) -> dict:
    """Flat JSON-able report with per-predicate booleans and witnesses."""
    return {
        "level_we": c.level_we,
        "reedy_cof": c.reedy_cof,
        "reedy_fib": c.reedy_fib,
        "equifibered": c.equifibered,
        "realization_we": c.realization_we,
        "flag": c.realization_flag,
        "reedy_trivial_cof": c.reedy_trivial_cof,
        "reedy_trivial_fib": c.reedy_trivial_fib,
        "witnesses": {
            k: jsonable_witness(v) for k, v in sorted(c.witnesses.items())
        },
    }


def classify(f: SimplicialMap, check_invariant: bool = True) -> Classification:
    wits = {}
    tx, ty, fn = normal_form(f)
    lw = _first_failing(fn, quasi_iso_witness)
    cw = _first_failing(fn, mono_witness)
    fw = _moore_criterion(tx, ty, fn)
    sq = _face_squares(fn) if fw is None else None
    rr = tt.realization_we(f, tx, ty, fn)
    if lw is not None:
        wits["level_we"] = lw
    if cw is not None:
        wits["reedy_cof"] = cw
    if fw is not None:
        wits["reedy_fib"] = fw
        wits["equifibered"] = fw
    elif sq is not None:
        wits["equifibered"] = sq
    if not rr.we and rr.witness is not None:
        wits["realization_we"] = rr.witness
    c = Classification(
        level_we=lw is None,
        reedy_cof=cw is None,
        reedy_fib=fw is None,
        equifibered=fw is None and sq is None,
        realization=rr,
        reedy_trivial_cof=lw is None and cw is None,
        reedy_trivial_fib=lw is None and fw is None,
        witnesses=wits,
    )
    if check_invariant and c.reedy_fib and c.level_we:
        if not c.equifibered:
            raise InternalInvariantError(
                f"trivial fibration with a non-cartesian face square at {sq}"
            )
        if not c.realization_we:
            raise InternalInvariantError(
                "levelwise equivalence whose realization comparison failed "
                f"at degree {rr.witness}"
            )
    return c


def pushout_product(f: ChainMap | SimplicialMap, i: ss.SSetMap) -> SimplicialMap:
    """(X -> Y) boxed with (K -> L): the induced map out of
    X tensor L glued with Y tensor K over X tensor K, into Y tensor L.
    A plain chain map is promoted to its constant simplicial map first."""
    if isinstance(f, ChainMap):
        f = so.constant_map(i.source.N, f)
    return so.box_map(f, i)


@dataclass(frozen=True)
class CotensorSquare:
    """Corner map X^L -> Y^L x_{Y^K} X^K with its ingredients."""

    map: ChainMap
    span: SpanResult
    xl: so.Cotensor
    xk: so.Cotensor
    yl: so.Cotensor
    yk: so.Cotensor


def cotensor_map(f: SimplicialMap, i: ss.SSetMap) -> CotensorSquare:
    """The corner map of f: X -> Y along i: K -> L."""
    x, y = f.source, f.target
    xl, xk = so.cotensor0(x, i.target), so.cotensor0(x, i.source)
    yl, yk = so.cotensor0(y, i.target), so.cotensor0(y, i.source)
    span = pullback(so.cotensor_restrict(i, yl, yk), so.cotensor_apply(f, xk, yk))
    m = pullback_mediator(span, so.cotensor_apply(f, xl, yl), so.cotensor_restrict(i, xl, xk))
    return CotensorSquare(m, span, xl, xk, yl, yk)


def matching_cotensor_comparison(f: SimplicialMap, n: int) -> bool:
    """Check that the corner map against the boundary inclusion of the
    n-simplex turns into the relative matching comparison once both
    corners are identified along the canonical isomorphisms."""
    x, y = f.source, f.target
    i = ss.boundary_inclusion(x.N, n)
    sq = cotensor_map(f, i)
    rel = relative_matching(f, n)
    phi_x = so.yoneda_projection(x, n, sq.xl)
    phi_y = so.yoneda_projection(y, n, sq.yl)
    beta_x = so.boundary_cotensor_from_matching(x, n, sq.xk, rel.mx)
    if not (is_iso(phi_x) and is_iso(phi_y) and is_iso(beta_x)):
        return False
    theta = pullback_mediator(
        rel.span,
        phi_y @ sq.span.left,
        invert_map(beta_x) @ sq.span.right,
    )
    if not is_iso(theta):
        return False
    return theta @ sq.map == rel.map @ phi_x
