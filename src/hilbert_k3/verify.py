"""Named verification suites with machine-readable reports.

Each suite re-runs a cluster of the toolkit's identities at fixed tolerances
and reports one (name, pass, residual) line per check.  The CLI and the
acceptance tests both drive these functions.  ``run_suites`` runs several
suites side by side in forked worker processes, one per usable CPU.
"""

from __future__ import annotations

import contextlib
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from . import diffops, elliptic, fibrations, hilbert_theta, klein, lattice, moduli, pde, periods
from .numkernel import PrecisionPolicy, working_precision
from .polynomials import SparsePoly

DEFAULT_SEED = 20250811


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: str          # decimal string or "exact"
    runtime_ms: int

    def as_dict(self) -> dict:
        return {"name": self.name, "status": "pass" if self.passed else "fail",
                "residual": self.residual, "runtime_ms": self.runtime_ms}


@dataclass
class VerificationReport:
    suite_name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def sorted(self) -> "VerificationReport":
        rep = VerificationReport(self.suite_name)
        rep.checks = sorted(self.checks, key=lambda c: c.name)
        return rep

    def as_dict(self, stable: bool = False) -> dict:
        checks = [c.as_dict() for c in self.sorted().checks]
        if stable:
            for c in checks:
                c["runtime_ms"] = 0
        return {"suite": self.suite_name,
                "overall": "pass" if self.overall_pass else "fail",
                "checks": checks}


class _Collector:
    def __init__(self, suite: str):
        self.report = VerificationReport(suite)

    def add(self, name: str, passed, residual="exact"):
        self.add_shared((name, passed, residual))

    def add_shared(self, *rows):
        """Adds checks (name, passed[, residual]) that read one shared
        computation, splitting its time since the previous add evenly."""
        t = int((time.perf_counter() - self._t0) * 1000 / len(rows))
        for name, passed, *residual in rows:
            residual = residual[0] if residual else "exact"
            if not isinstance(residual, str):
                residual = mpmath.nstr(mpmath.mpmathify(residual), 6)
            self.report.checks.append(CheckResult(name, bool(passed), residual, t))
        self._t0 = time.perf_counter()

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        return False


def sample_points(count: int, seed: int = DEFAULT_SEED) -> list[tuple]:
    """Seeded sample pairs in the box Re in [-0.5, 0.5], Im in [0.8, 2.0],
    rounded so reports are reproducible across precisions."""
    rng = random.Random(seed)

    def pick():
        re = round(rng.uniform(-0.5, 0.5), 6)
        im = round(rng.uniform(0.8, 2.0), 6)
        return mpmath.mpc(mpmath.mpf(str(re)), mpmath.mpf(str(im)))

    return [(pick(), pick()) for _ in range(count)]


def diagonal_points(count: int, seed: int = DEFAULT_SEED) -> list:
    return [p[0] for p in sample_points(count, seed + 1)]


# ------------------------------------------------------------------ the suites


def suite_klein(policy: PrecisionPolicy, seed: int) -> VerificationReport:
    inv = klein.build_invariants()
    with _Collector("klein") as c:
        rep = klein.verify_klein_relation()
        counts = rep["term_counts"]
        c.add_shared(("relation_expands_to_zero", rep["exact_zero"]),
                     ("term_counts", counts == {"A": 2, "B": 5, "C": 12, "D": 20},
                      "A={A} B={B} C={C} D={D}".format(**counts)))
        degrees = {"A": 2, "B": 6, "C": 10, "D": 15}
        ok = all(getattr(inv, k).is_homogeneous(d) for k, d in degrees.items())
        c.add("homogeneous_degrees_2_6_10_15", ok)
        sym = (klein.swap_z1_z2(inv.A) == inv.A and klein.swap_z1_z2(inv.B) == inv.B
               and klein.swap_z1_z2(inv.C) == inv.C
               and klein.swap_z1_z2(inv.D) == -inv.D)
        c.add("swap_symmetry_ABC_even_D_odd", sym)
        # the invariants' values at a rational point satisfy the relation as numbers
        zeta = {"z0": Fraction(1), "z1": Fraction(2), "z2": Fraction(3)}
        values = [getattr(inv, k).evaluate(zeta) for k in "ABCD"]
        c.add("relation_at_rational_point", klein.klein_relation_poly(*values) == 0)
        perturbed = klein.klein_relation_poly(
            inv.A, inv.B, inv.C,
            inv.D + SparsePoly.variable(klein.ZETA_VARS, "z0") ** 15)
        c.add("perturbation_breaks_relation", not perturbed.is_zero())
    return c.report


def suite_mueller(policy: PrecisionPolicy, seed: int) -> VerificationReport:
    with _Collector("mueller") as c, working_precision(policy):
        pts = sample_points(5, seed)
        forms = [hilbert_theta.mueller_forms(p, policy) for p in pts]
        worst = mpmath.mpf(0)
        for f in forms:
            worst = max(worst, hilbert_theta.verify_mueller_relation(f, policy))
        c.add("ring_relation_at_sample_points", worst < 1e-8, worst)
        worst = mpmath.mpf(0)
        for f in forms:
            worst = max(worst, abs(f.s10 - f.s5 ** 2) / max(abs(f.s10), mpmath.mpf(1e-30)))
        c.add("s10_equals_s5_squared", worst < 1e-10, worst)
        f8 = hilbert_theta.mueller_forms((mpmath.mpc(0, 8), mpmath.mpc(0, 8)), policy)
        r = abs(f8.g2 - 1)
        c.add("g2_at_8i_8i_near_1", r < 1e-6, r)
        z = mpmath.mpc(0, "1.3")
        fd = hilbert_theta.mueller_forms((z, z), policy)
        scale = max(abs(fd.g2) ** 5, mpmath.mpf(1))
        c.add("s10_vanishes_on_diagonal", abs(fd.s10) < 1e-10 * scale, abs(fd.s10))
        z9 = mpmath.mpc(0, "0.9")
        f9 = hilbert_theta.mueller_forms((z9, z9), policy)
        prod = (elliptic.jacobi_theta("00", z9, policy)
                * elliptic.jacobi_theta("01", z9, policy)
                * elliptic.jacobi_theta("10", z9, policy)) ** 8 / 2 ** 7
        r = abs(f9.s6 - prod) / abs(prod)
        c.add("s6_diagonal_theta_product", r < 1e-10, r)
    return c.report


def suite_main_theorem(policy: PrecisionPolicy, seed: int) -> VerificationReport:
    with _Collector("main-theorem") as c, working_precision(policy):
        r = periods.verify_diagonal_inverse_identity(diagonal_points(10, seed), policy)
        c.add("diagonal_X_times_J_is_25_27", r < 1e-8, r)
        pts = sample_points(10, seed)
        forms = [hilbert_theta.mueller_forms(p, policy) for p in pts]
        worst = mpmath.mpf(0)
        for p, f in zip(pts, forms):
            X, Y, Z = moduli.moduli_XYZ(p, policy, forms=f)
            lhs, rhs = 144 * Z, klein.quintic(1, X, Y)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        c.add("quintic_relation_144Z", worst < 1e-8, worst)
        worst = mpmath.mpf(0)
        for f in forms:
            worst = max(worst, hilbert_theta.verify_mueller_relation(f, policy))
        c.add("mueller_relation_along_samples", worst < 1e-8, worst)
    return c.report


def suite_transformations(policy: PrecisionPolicy, seed: int) -> VerificationReport:
    with _Collector("transformations") as c, working_precision(policy):
        orbits = [moduli.orbit(p, policy) for p in sample_points(3, seed)]
        for gen in moduli.GENERATORS:
            worst = mpmath.mpf(0)
            for o in orbits:
                worst = max(worst, moduli.modular_invariance(o, gen, policy))
            c.add(f"XY_invariant_under_{gen}", worst < 1e-8, worst)
        law = moduli.verify_modularity(orbits[0], policy)
        for name, r in sorted(law.items()):
            c.add(f"form_law_{name}", r < 1e-8, r)
    return c.report


def suite_factorization(policy: PrecisionPolicy, seed: int) -> VerificationReport:
    with _Collector("factorization") as c:
        ode = periods.restricted_operators()
        c.add("W4_equals_W1_compose_W3", ode.W1.compose(ode.W3) == ode.W4)
        transported = periods.restricted_ode_X().rescale_variable(
            Fraction(25, 27)).monic().rename_variable("t")
        c.add("moduli_coordinate_transport", transported == ode.W4)
    return c.report


def suite_riemann_scheme(policy: PrecisionPolicy, seed: int) -> VerificationReport:
    eq = periods.restricted_ode_X()
    expected = {
        "0": [Fraction(0), Fraction(1), Fraction(1), Fraction(1)],
        "25/27": [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)],
        "40/3": [Fraction(0), Fraction(1), Fraction(2), Fraction(4)],
        "infinity": [Fraction(-5, 6), Fraction(-1, 2), Fraction(-1, 6), Fraction(0)],
    }
    with _Collector("riemann-scheme") as c:
        for label, want in expected.items():
            point = label if label == "infinity" else Fraction(label)
            got = diffops.indicial_exponents(eq, point)
            c.add(f"exponents_at_{label.replace('/', '_')}", got == sorted(want))
    return c.report


def suite_clausen(policy: PrecisionPolicy, seed: int) -> VerificationReport:
    # a vanishing residual passes only when it is known as far as the orders
    # give: restdiff3 of S (order + 1 terms) to t^(order - 2), W3 of the
    # products t y_i y_j of the order + 6 basis to t^(order + 5), and
    # s2^2 - s1 s3 to t^(order + 9)
    order = 40
    with _Collector("clausen") as c:
        rep = periods.verify_clausen_and_S(order)
        c.add_shared((f"clausen_square_identity_order_{order}", rep["clausen"]),
                     ("antiderivative_identity", rep["antiderivative_identity"]),
                     ("S_annihilated_by_third_order_eq",
                      rep["S_annihilated"] and rep["S_checked_order"] >= order - 2),
                     ("derivative_consistency", rep["derivative_consistency"]))
        sym = periods.verify_symmetric_square(order)
        quadratic = sym["s2^2 = s1*s3"]
        c.add_shared(*[(f"W3_annihilates_{name}",
                        sym[name]["annihilated"] and sym[name]["checked_order"] >= order + 5)
                       for name in ("t*y1^2", "t*y1*y2", "t*y2^2")],
                     ("quadratic_relation_s2sq_s1s3",
                      quadratic["holds"] and quadratic["checked_order"] >= order + 9))
    return c.report


def suite_j_theorem(policy: PrecisionPolicy, seed: int) -> VerificationReport:
    with _Collector("j-theorem") as c, working_precision(policy):
        r = periods.verify_diagonal_inverse_identity(diagonal_points(5, seed), policy)
        c.add("X_times_J_at_seeded_diagonal", r < 1e-8, r)
        X, _, _ = moduli.moduli_XYZ((mpmath.mpc(0, 1), mpmath.mpc(0, 1)), policy)
        r = abs(X - mpmath.mpf(25) / 27)
        c.add("X_at_i_i_equals_25_27", r < 1e-8, r)
        jv = elliptic.eisenstein_and_J(mpmath.mpc(0, 2), policy)
        z0 = periods.schwarz_map(1 / jv.real, policy)
        r = abs(z0 - mpmath.mpc(0, 2))
        c.add("schwarz_round_trip_through_J", r < 1e-8, r)
        z03 = periods.schwarz_map("0.3", policy)
        c.add("schwarz_branch_imaginary", z03.real == 0 and z03.imag > 1)
    return c.report


def suite_pde_restriction(policy: PrecisionPolicy, seed: int) -> VerificationReport:
    with _Collector("pde-restriction") as c:
        rep = pde.verify_pde_restriction()
        c.add_shared(("elimination_reproduces_restricted_ode", rep["matches_restricted_ode"]),
                     ("no_zeroth_order_term_on_Y0", rep["no_zeroth_order_term"]))
        compat = pde.verify_mixed_jet_compatibility()
        c.add("mixed_jet_reductions_agree", compat["consistent"]
              and compat["compared_orders"] >= 1)
    return c.report


def suite_quadric(policy: PrecisionPolicy, seed: int) -> VerificationReport:
    with _Collector("quadric") as c:
        fit = pde.quadric_from_grids(pde.taylor_basis(pde.BASE, pde.ORDER).scaled, pde.ORDER)
        c.add_shared(("holdout_residual", fit.holdout_residual < 1e-6, fit.holdout_residual),
                     ("rank_exactly_4", fit.rank == 4),
                     ("signature_2_2", sorted(fit.eigenvalue_signs) == [-1, -1, 1, 1]))
    return c.report


def suite_developing_map(policy: PrecisionPolicy, seed: int) -> VerificationReport:
    with _Collector("developing-map") as c:
        rep = pde.developing_map_match(samples=14, policy=policy)
        c.add("projective_match_holdout", rep["holdout_residual"] < 1e-5,
              rep["holdout_residual"])
    return c.report


def suite_monodromy(policy: PrecisionPolicy, seed: int) -> VerificationReport:
    with _Collector("monodromy") as c, working_precision(policy):
        orth = lattice.check_orthogonality()
        c.add("generators_preserve_form", all(orth.values()))
        sym = lattice.j_map_symbolic_identities()
        c.add("embedding_lands_on_quadric", sym["quadric_identically_zero"])
        c.add("hermitian_form_positive", sym["hermitian_matches_4ImIm"])
        worst = max(lattice.action_residuals(sample_points(5, seed), policy).values())
        c.add("single_action_convention", worst < 1e-8, worst)
        ji = lattice.j_map((mpmath.mpc(0, 1), mpmath.mpc(0, 1)), policy)
        anchor = (mpmath.mpc(1), mpmath.mpc(1), mpmath.mpc(0, -1), mpmath.mpc(0))
        r = moduli.projective_distance(ji, anchor)
        c.add("anchor_point_at_i_i", r < 1e-8, r)
    return c.report


def suite_fibers(policy: PrecisionPolicy, seed: int) -> VerificationReport:
    expected = {
        (1, 1): {"IV*": 1, "I1": 5, "I5*": 1},
        (1, 0): {"III*": 1, "I1": 3, "I6*": 1},
        (0, -64): {"IV*": 1, "I1": 3, "I2": 1, "I5*": 1},
    }
    with _Collector("fibers") as c:
        for (x, y), want in expected.items():
            cfg = fibrations.classify_fibers(Fraction(x), Fraction(y))
            label = f"config_at_{x}_{y}".replace("-", "m")
            c.add(label, cfg.multiset() == want and cfg.euler_total == 24)
        degenerate = fibrations.classify_fibers(Fraction(0), Fraction(0))
        c.add("origin_not_K3", degenerate.euler_total < 24 and not degenerate.is_k3)
        boundary = fibrations.classify_boundary_family(Fraction(1))
        c.add("boundary_generic_config",
              boundary.multiset() == {"IV*": 1, "I1": 5, "I5*": 1}
              and boundary.euler_total == 24)
    return c.report


# longest first, by the suite spans of a traced verify all at 128 bits pinned
# to one CPU (44 ms down to 2 ms on a 2-vCPU VM); run_suites's workers claim
# them in this order, so that no long suite starts last
SUITES = {
    "pde-restriction": suite_pde_restriction,
    "developing-map": suite_developing_map,
    "main-theorem": suite_main_theorem,
    "transformations": suite_transformations,
    "j-theorem": suite_j_theorem,
    "clausen": suite_clausen,
    "mueller": suite_mueller,
    "quadric": suite_quadric,
    "monodromy": suite_monodromy,
    "klein": suite_klein,
    "riemann-scheme": suite_riemann_scheme,
    "factorization": suite_factorization,
    "fibers": suite_fibers,
}


def run_suite(name: str, policy: PrecisionPolicy,
              seed: int = DEFAULT_SEED) -> VerificationReport:
    """The named suite's report.  A suite that raises yields a report with
    the single failed check ``error``, whose residual is "<exception type>:
    <message>"."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    t0 = time.perf_counter()
    try:
        return SUITES[name](policy, seed)
    except Exception as exc:
        # of any type: a lost report is worse than a fail row that names the exception
        report = VerificationReport(name)
        report.checks.append(CheckResult("error", False, f"{type(exc).__name__}: {exc}",
                                         int((time.perf_counter() - t0) * 1000)))
        return report


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def worker_count(suites: int, cpus: int) -> int:
    """Worker processes for ``suites`` suites on ``cpus`` CPUs; 1 means the
    suites run in the calling process."""
    return max(1, min(suites, cpus))


def _claim_suites(queue: int, out: int, names: list[str], policy, seed: int):
    """A forked worker, which never returns: claims indices into ``names``
    one byte at a time from the ``queue`` pipe, pickles (index, report) to the
    ``out`` pipe as each suite ends, and leaves by ``os._exit``."""
    import pickle

    status = 1
    try:
        with open(out, "wb") as f:
            while claimed := os.read(queue, 1):
                pickle.dump((claimed[0], run_suite(names[claimed[0]], policy, seed)), f)
                f.flush()
        status = 0
    finally:
        os._exit(status)


def run_suites(names: list[str], policy: PrecisionPolicy = PrecisionPolicy(),
               seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    """The named suites' reports, in the order of ``names``.

    With more than one suite and more than one usable CPU, one forked worker
    per CPU claims the suites one at a time from a pipe, longest first (the
    order of SUITES), and this process runs none; otherwise they run here,
    where in-process profilers and tracers see them.  A worker that dies
    (``os._exit``, the OOM killer) loses only the suite it was running, or,
    if every worker dies, also those none claimed: each gets the failed check
    ``error`` with residual "WorkerDied: <exit status>", negative for a signal."""
    workers = worker_count(len(names), usable_cpus())
    if workers == 1:
        return [run_suite(name, policy, seed) for name in names]
    import pickle   # only here: the serial path does not pay for its import

    t0 = time.perf_counter()
    queue, claims = os.pipe()
    os.write(claims, bytes(sorted(range(len(names)), key=lambda k: list(SUITES).index(names[k]))))
    os.close(claims)
    children, reports = [], {}
    try:
        for _ in range(workers):
            r, w = os.pipe()
            # fork returns 0 in the child, where _claim_suites never returns
            pid = os.fork() or _claim_suites(queue, w, names, policy, seed)
            os.close(w)
            children.append((pid, open(r, "rb")))
        for _, out in children:
            with contextlib.suppress(EOFError, pickle.UnpicklingError):
                while True:
                    reports.update([pickle.load(out)])   # one (index, report) pair
    finally:
        os.close(queue)
        for _, out in children:
            out.close()
        status = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    residual = f"WorkerDied: {next((s for s in status if s), 0)}"
    ms = int((time.perf_counter() - t0) * 1000)
    return [reports.get(k) or VerificationReport(name, [CheckResult("error", False, residual, ms)])
            for k, name in enumerate(names)]
