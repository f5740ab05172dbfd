"""Command-line driver.

Subcommands: fiber-verify, point-verify, fillin, fuchsian, solve, muholo,
flow.  Configs are JSON, fields travel as CSV, every run past its argument
and config checks, a failed one included, writes exactly one report.json
into the output directory (and echoes it to stdout).

Exit codes: 0 ok, 1 warn-threshold breached, 2 fail, 3 unknown subcommand,
4 malformed config, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

import numpy as np

from . import chart as chm
from . import connection as cn
from . import fiber
from . import fockpoint as fp
from . import hcsflow as hf
from . import solver as sv
from .errors import DegenerateStructureError
from .report import SolveReport

EXIT_OK, EXIT_WARN, EXIT_FAIL = 0, 1, 2
EXIT_USAGE, EXIT_CONFIG, EXIT_IO = 3, 4, 5

class ConfigError(ValueError):
    pass


def _int(v):
    """A JSON integer: bools, floats and strings are not coerced."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"{v!r} is not an integer")
    return v


def _bool(v):
    """A JSON boolean: no other value is read as one."""
    if not isinstance(v, bool):
        raise TypeError(f"{v!r} is not a boolean")
    return v


def _positive(v):
    """A finite positive JSON number: bools and strings are not coerced."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < np.inf:
        raise ValueError(f"{v!r} is not a finite positive number")
    return float(v)


# The type of each solver key; a key left out takes NewtonConfig's default.
_SOLVER_KINDS = {
    "continuation_steps": _int, "newton_tol": float, "max_newton": _int, "cg_tol": float,
    "max_cg": _int, "fd_check": _bool, "preconditioner": str,
}


# Keys of the config schema, top level (None) and per checked section.
_CONFIG_KEYS = {
    None: {
        "n", "chart", "beltrami", "covector", "hamiltonian", "solver",
        "grids", "hermitian", "seed", "output_dir", "c0",
    },
    "chart": {"kind", "nx", "ny", "radius", "lx", "ly"},
    "solver": set(_SOLVER_KINDS),
    "hamiltonian": {"ell", "eps", "steps", "w"},
}


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for section, known in _CONFIG_KEYS.items():
        spec = cfg if section is None else cfg.get(section)
        if section in cfg and not isinstance(spec, dict):
            raise ConfigError(f"{section!r} must be an object, got {spec!r}")
        unknown = sorted(set(spec) - known) if isinstance(spec, dict) else []
        if unknown:
            where = "the config" if section is None else f"{section!r}"
            raise ConfigError(f"unknown key {unknown[0]!r} in {where}; known keys: {', '.join(sorted(known))}")
    return cfg


def _build_chart(spec) -> chm.Chart:
    try:
        kind = spec["kind"]
        nx, ny = _typed(spec, "nx", _int), _typed(spec, "ny", _int)
        if kind == "periodic-rect":
            return chm.periodic_chart(nx, ny, float(spec.get("lx", 1.0)), float(spec.get("ly", 1.0)))
        if kind == "dirichlet-disk":
            return chm.disk_chart(nx, ny, float(spec.get("radius", 0.5)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad chart spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown chart kind {kind!r}")


def _complex(v):
    """A complex number from a number or a [re, im] pair."""
    if isinstance(v, (list, tuple)):
        re, im = v
        return complex(re, im)
    return complex(v)


def _point(v):
    x, y = v
    return (float(x), float(y))


def _build_scalar(chart, spec, name) -> np.ndarray:
    """The grid values of a field spec; ``name`` labels the spec in errors."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be a field spec object, got {spec!r}")
    kind = spec.get("type")
    if kind == "constant":
        data = np.full((chart.nx, chart.ny), _typed(spec, "value", _complex, 0.0))
    elif kind == "bump":
        data = chm.bump_field(
            chart,
            center=_typed(spec, "center", _point, (0.0, 0.0)),
            radius=_typed(spec, "radius", float, 0.25),
            amplitude=_typed(spec, "amplitude", _complex, 1.0),
        ).data
    elif kind == "file":
        try:
            data = chm.load_scalar_csv(_require(spec, "path"), chart).data
        except ValueError as exc:  # a malformed file; a missing one stays an I/O error
            raise ConfigError(f"{name}: {exc}") from exc
    else:
        raise ConfigError(f"unknown field spec type {kind!r}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise ConfigError(f"{name} is not finite at grid point ({i}, {j}): {data[i, j]!r}")
    return data


def _build_component_family(chart, n, spec, section):
    spec = {} if spec is None else spec
    if not isinstance(spec, dict):
        raise ConfigError(f"{section!r} must be an object, got {spec!r}")
    comps = {}
    for key, sub in spec.items():
        try:
            k = int(key)
        except ValueError as exc:
            raise ConfigError(f"{key!r} must be a component index in {section!r}") from exc
        if not 2 <= k <= n:
            raise ConfigError(f"component index {k} outside 2..{n}")
        comps[k] = _build_scalar(chart, sub, f"{section}[{key!r}]")
    return chm.BeltramiField(chart, n, comps)


def _newton_config(spec) -> sv.NewtonConfig:
    spec = spec or {}
    given = {key: _typed(spec, key, kind) for key, kind in _SOLVER_KINDS.items() if key in spec}
    try:
        return sv.NewtonConfig(**given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver spec: {exc}") from exc


def _emit(report: SolveReport, outdir) -> int:
    """Write ``report`` to ``outdir``/report.json (none without ``outdir``),
    echo it on stdout and return its exit code."""
    try:
        text = report.to_json()
        if outdir is not None:
            with open(os.path.join(outdir, "report.json"), "w") as fh:
                fh.write(text + "\n")
    except (TypeError, ValueError) as err:  # an output_dir that is not a path
        sys.stderr.write(f"no report written: {err}\n")
        return EXIT_FAIL
    print(text)
    return report.exit_code()


# ---------------------------------------------------------------------------
# fiber-verify


def _cmd_fiber_verify(cfg, out, rep):
    n = cfg["n"]
    rng = np.random.default_rng(cfg["seed"])
    checks = {}
    triple = fiber.complete_sl2_triple(n)
    br = fiber.commutator
    checks["triple_HE"] = float(np.abs(br(triple.H, triple.E) - 2 * triple.E).max())
    checks["triple_HF"] = float(np.abs(br(triple.H, triple.F) + 2 * triple.F).max())
    checks["triple_EF"] = float(np.abs(br(triple.E, triple.F) - triple.H).max())
    sigma, rho = fiber.sigma, fiber.rho
    checks["sigma_F"] = float(np.abs(sigma(triple.F) + triple.F).max())
    checks["sigma_E"] = float(np.abs(sigma(triple.E) + triple.E).max())
    worst = compact = 0.0
    for _ in range(cfg["samples"]):
        x = fiber.random_traceless(n, rng)
        worst = max(worst, float(np.abs(sigma(rho(x)) - rho(sigma(x))).max()))
        worst = max(worst, float(np.abs(sigma(sigma(x)) - x).max()))
        worst = max(worst, float(np.abs(rho(rho(x)) - x).max()))
        # rho fixes su(n): it fixes the anti-hermitian part and negates the hermitian one
        anti, herm = x - fiber.dagger(x), x + fiber.dagger(x)
        compact = max(compact, float(np.abs(rho(anti) - anti).max()), float(np.abs(rho(herm) + herm).max()))
    checks["involution_algebra"] = worst
    checks["rho_fixes_su_n"] = compact
    cb = fiber.centralizer_basis(triple.F)
    checks["centralizer_dim_defect"] = abs(len(cb) - (n - 1))
    neg = max(float(np.abs(sigma(b) + b).max()) for b in cb)
    checks["sigma_negates_centralizer"] = neg
    ab = 0.0
    ad = fiber.ad_columns(triple.F, fiber.sl_basis(n))
    for i, b1 in enumerate(cb):
        for b2 in cb[i + 1 :]:
            ab = max(ab, float(np.abs(br(b1, b2)).max()))
        sol, *_ = np.linalg.lstsq(ad, b1.reshape(-1), rcond=None)
        resid = np.abs(ad @ sol - b1.reshape(-1)).max()
        checks["center_in_image"] = max(checks.get("center_in_image", 0.0), float(resid))
    checks["centralizer_abelian"] = ab
    if n <= 6:
        wb = fiber.weight_basis(n, exact=True)
        bad = 0
        for (i, j, gi) in wb:
            for (k, l, gk) in wb:
                tr = np.trace(gi @ gk)
                if (k, l) == (i, -j):
                    bad += tr == 0
                else:
                    bad += tr != 0
        checks["trace_orthogonality_violations"] = bad
    rep.residual_norms = checks
    tol = 1e-12
    for key, val in checks.items():
        if val > tol:
            rep.fail(f"{key} = {val!r} exceeds {tol}")


# ---------------------------------------------------------------------------
# point-verify


# Certified samples are evaluated in blocks of this many.  Larger blocks save no
# time but raise peak memory: at n = 4, 200 samples in one block add 27 MB to
# the process's peak, in blocks of 32 they add 7 MB.
POINT_BLOCK = 32


def _draw_certified(n, samples, rng):
    """Draw and certify the samples in order: mu, then two random traceless
    matrices for omega if mu certified.  Returns the certified phi2 (S, n, n),
    the omega fibers (S, 2, n, n) and how many mu were degenerate."""
    phi2, omega = [], []
    for _ in range(samples):
        mu = 0.25 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
        try:
            pt = fp.fock_point(n, mu)
        except DegenerateStructureError:
            continue
        phi2.append(pt.phi2)
        omega.append((fiber.random_traceless(n, rng), fiber.random_traceless(n, rng)))
    return np.array(phi2).reshape(-1, n, n), np.array(omega).reshape(-1, 2, n, n), samples - len(phi2)


def _verify_block(phi2, omega, worst) -> int:
    """Fold the checks of one block of certified points into ``worst``; returns
    how many of them are positive."""
    n = phi2.shape[-1]
    f = fiber.principal_nilpotent(n)
    fw = fp.four_way(f, phi2, fiber.dagger(phi2), fiber.dagger(f))
    parts = fw.split(omega)
    resid = fp.fiber_norms(parts.sum(axis=0) - omega) / np.maximum(fp.fiber_norms(omega), 1e-300)
    worst["reconstruction"] = max(worst["reconstruction"], float(resid.max()))
    worst["dims"] += int(np.any(fp.cohomology_dims(f, phi2) != (n - 1, 2 * (n - 1), n - 1), axis=-1).sum())
    eps = fp.EPS_POS
    pos = fp.positivity_margins(f, phi2) > eps
    s = fp.contraction_norms(f, phi2)
    worst["gram_vs_contraction"] += int(np.sum(pos != (s * s < (1 - eps) / (1 + eps))))
    # omega_2 = (x, x/2) with x the first sigma_plus_basis element, in the
    # coordinates Q acts on; the basis is orthonormal, so their norms are fiber norms
    m = n * (n - 1) // 2
    om2 = np.zeros((2 * m, 1))
    om2[[0, m], 0] = 1.0, 0.5
    q = fp.q_matrices(f, phi2[pos], fiber.dagger(phi2[pos]), fiber.dagger(f))
    q2 = np.linalg.norm(q @ (q @ om2) - om2, axis=(-2, -1))
    worst["q_involution"] = max(worst["q_involution"], float(q2.max(initial=0.0)))
    return len(q)


def _cmd_point_verify(cfg, out, rep):
    t0 = time.perf_counter()
    phi2, omega, skipped = _draw_certified(cfg["n"], cfg["samples"], np.random.default_rng(cfg["seed"]))
    t1 = time.perf_counter()
    worst = {"reconstruction": 0.0, "dims": 0, "gram_vs_contraction": 0, "q_involution": 0.0}
    positive = 0
    for lo in range(0, len(phi2), POINT_BLOCK):
        positive += _verify_block(phi2[lo : lo + POINT_BLOCK], omega[lo : lo + POINT_BLOCK], worst)
    t2 = time.perf_counter()
    rep.residual_norms = worst
    rep.iteration_traces = {"samples_checked": len(phi2), "degenerate_skipped": skipped, "positive": positive}
    rep.timings.update(certify_s=t1 - t0, batched_s=t2 - t1)
    if worst["reconstruction"] > 1e-10:
        rep.fail("four-way reconstruction above 1e-10")
    if worst["dims"] or worst["gram_vs_contraction"]:
        rep.fail("discrete invariants violated")
    if worst["q_involution"] > 1e-9:
        rep.fail("Q is not an involution")


# ---------------------------------------------------------------------------
# config-driven commands


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"config is missing {key!r}")
    return cfg[key]


def _typed(spec, key, kind, default=None):
    """``kind(spec[key])``, required without a default; a bad type is a config error."""
    value = _require(spec, key) if default is None else spec.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key!r} must be {kind.__name__.lstrip('_')}, got {value!r}") from exc


def _cmd_fuchsian(cfg, out, rep):
    n = _typed(cfg, "n", _int)
    spec = _require(cfg, "chart")
    grids = cfg.get("grids")
    residuals = {}
    if grids is not None:
        ints = isinstance(grids, list) and all(isinstance(nx, int) and not isinstance(nx, bool) for nx in grids)
        sizes = sorted(set(grids)) if ints else []
        if len(sizes) < 2:
            raise ConfigError(f"'grids' must be a list of two or more distinct integer grid sizes, got {grids!r}")
        for nx in sizes:
            local = dict(spec)
            local["nx"] = local["ny"] = nx
            ch = _build_chart(local)
            fd = sv.fuchsian_reference(n, ch)
            residuals[str(nx)] = fd.curvature_sup
        rep.residual_norms = dict(residuals)
        rep.residual_norms["ratio"] = residuals[str(sizes[0])] / residuals[str(sizes[1])]
    else:
        ch = _build_chart(spec)
        fd = sv.fuchsian_reference(n, ch)
        residuals["residual_sup"] = fd.curvature_sup
        residuals["c0"] = fd.c0
        rep.residual_norms = residuals
        chm.save_lieform_csv(os.path.join(out, "A.csv"), fd.A)
        chm.save_matrix_field_csv(os.path.join(out, "h.csv"), ch, fd.h.data)
        chm.save_scalar_csv(os.path.join(out, "g.csv"), fd.g)


def _fields_from_config(cfg):
    n = _typed(cfg, "n", _int)
    ch = _build_chart(_require(cfg, "chart"))
    mu = _build_component_family(ch, n, cfg.get("beltrami"), "beltrami")
    t = _build_component_family(ch, n, cfg.get("covector"), "covector")
    return n, ch, mu, t


def _cmd_fillin(cfg, out, rep):
    n, ch, mu, _ = _fields_from_config(cfg)
    hermitian = cfg.get("hermitian", "identity")
    if hermitian not in ("fuchsian", "identity"):
        raise ConfigError(f"'hermitian' must be 'fuchsian' or 'identity', got {hermitian!r}")
    if hermitian == "fuchsian":
        fd = sv.fuchsian_reference(n, ch)
        phi, h, a, boundary = fd.Phi, fd.h, fd.A, sv.FUCHSIAN_BOUNDARY
    else:
        phi, h, boundary = hf.fock_form(ch, mu), cn.identity_hermitian(ch, n), "auto"
        a = cn.fill_in(phi, h=h, boundary=boundary)
    chm.save_lieform_csv(os.path.join(out, "A.csv"), a)
    diagnostics = cn.connection_report(phi, a, h=h, boundary=boundary)
    rep.residual_norms = {k: v for k, v in diagnostics.items() if isinstance(v, float)}
    for msg in diagnostics["warnings"]:
        rep.warn(msg)


def _cmd_solve(cfg, out, rep):
    n, ch, mu, _ = _fields_from_config(cfg)
    ncfg = _newton_config(cfg.get("solver"))
    c0 = None if cfg.get("c0") is None else _typed(cfg, "c0", _positive)
    fd = sv.fuchsian_reference(n, ch, c0=c0)
    eta, srep = sv.newton_continuation(fd, mu, ncfg)
    chm.save_lieform_csv(os.path.join(out, "eta.csv"), eta)
    chm.save_lieform_csv(os.path.join(out, "phi.csv"), srep["phi"])
    chm.save_lieform_csv(os.path.join(out, "A.csv"), srep["connection"])
    rep.residual_norms = {
        "final_residual": srep["final_residual"],
        "curvature_sup": srep["curvature_sup"],
        "curvature_floor": srep["curvature_floor"],
        "eta_sup": srep["eta_sup"],
    }
    rep.iteration_traces = {"per_step": srep["per_step"]}
    rep.timings["newton_wall_time_s"] = srep["wall_time_s"]
    if not (srep["final_residual"] <= ncfg.newton_tol):
        rep.fail(f"final residual {srep['final_residual']:.3e} above newton_tol")


def _cmd_muholo(cfg, out, rep):
    n, ch, mu, t = _fields_from_config(cfg)
    phi = hf.fock_form(ch, mu)
    a = cn.inject_covector(phi, cn.identity_hermitian(ch, n), t)
    tensor = hf.mu_holo_residual(mu, t)
    gauge = hf.gauge_muholo_residual(phi, a)
    mask = ch.mask()
    norms = {}
    diff_sup = 0.0
    for k in range(2, n + 1):
        norms[f"tensor_{k}"] = float(np.abs(tensor[k][mask]).max())
        norms[f"gauge_{k}"] = float(np.abs(gauge[k][mask]).max())
        d = float(np.abs((tensor[k] - gauge[k])[mask]).max())
        norms[f"difference_{k}"] = d
        diff_sup = max(diff_sup, d)
    norms["equivalence_sup"] = diff_sup
    rep.residual_norms = norms
    for k in range(2, n + 1):
        chm.save_scalar_csv(os.path.join(out, f"tensor_residual_{k}.csv"), chm.ScalarField(ch, tensor[k]))
        chm.save_scalar_csv(os.path.join(out, f"gauge_residual_{k}.csv"), chm.ScalarField(ch, gauge[k]))
    floor = 100.0 * ch.hx**2
    if diff_sup > floor:
        rep.warn(f"gauge/tensor residual difference {diff_sup:.3e} above {floor:.1e}")


def _cmd_flow(cfg, out, rep):
    n, ch, mu, t = _fields_from_config(cfg)
    ham_spec = _require(cfg, "hamiltonian")
    eps = _typed(ham_spec, "eps", float, 1e-3)
    steps = _typed(ham_spec, "steps", _int, 1)
    ell = _typed(ham_spec, "ell", _int)
    ham = hf.HamiltonianTerm(ell, chm.ScalarField(ch, _build_scalar(ch, _require(ham_spec, "w"), "hamiltonian['w']")))
    phi = hf.fock_form(ch, mu)
    h = cn.identity_hermitian(ch, n)
    a_form = cn.inject_covector(phi, h, t)
    mask = ch.mask()

    def table(phi_c, a_c):
        psi = cn.hermitian_adjoint_field(phi_c, h)
        curv = cn.curvature_total(a_c, phi_c, psi)
        mu_c = hf.beltrami_extract(phi_c)
        t_c = cn.covector_extract(a_c, phi_c)
        resid = hf.mu_holo_residual(mu_c, t_c)
        return {
            "curvature_sup": cn.sup_norm(curv),
            "mu_holo_sup": max(float(np.abs(resid[k][mask]).max()) for k in range(2, n + 1)),
        }

    before = table(phi, a_form)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(steps):
            phi, a_form = hf.flow_step(phi, a_form, h, ham, eps)
    for w in caught:
        rep.messages.append(f"step drift: {w.message}")
    after = table(phi, a_form)
    rep.residual_norms = {"before": before, "after": after}
    rep.iteration_traces = {"eps": eps, "steps": steps}


# ---------------------------------------------------------------------------

# Each handler fills the run's report from its config, writing any field CSVs
# into the output directory; run() builds, times and emits the report.
_HANDLERS = {
    "fiber-verify": _cmd_fiber_verify,
    "point-verify": _cmd_point_verify,
    "fillin": _cmd_fillin,
    "fuchsian": _cmd_fuchsian,
    "solve": _cmd_solve,
    "muholo": _cmd_muholo,
    "flow": _cmd_flow,
}
_SUBCOMMANDS = tuple(_HANDLERS)


def run(argv) -> int:
    """Run one subcommand and emit its one report.  A handler that raises
    anything but a config or I/O error leaves a ``fail`` report with the
    exception and whatever trace it carries (a residual history, a
    continuation parameter, a grid point, the records of the continuation
    steps that finished)."""
    argv = list(argv)
    if not argv:
        sys.stderr.write(f"usage: fockbench <{'|'.join(_SUBCOMMANDS)}> ...\n")
        return EXIT_USAGE
    cmd = argv[0]
    if cmd not in _HANDLERS:
        sys.stderr.write(f"unknown subcommand {cmd!r}; expected one of {', '.join(_SUBCOMMANDS)}\n")
        return EXIT_USAGE
    flags = cmd in ("fiber-verify", "point-verify")  # the others read a --config
    p = argparse.ArgumentParser(prog=f"fockbench {cmd}", exit_on_error=False)
    if flags:
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=20 if cmd == "fiber-verify" else 50)
        p.add_argument("--out", default=None)
    else:
        p.add_argument("--config", required=True)
    try:
        args = p.parse_args(argv[1:])
    except (argparse.ArgumentError, SystemExit) as exc:
        sys.stderr.write(f"bad arguments: {exc}\n")
        return EXIT_CONFIG
    try:
        if flags:
            if args.n < 2:
                raise ConfigError("--n must be >= 2")
            if args.samples < 1:
                raise ConfigError("--samples must be >= 1")
            cfg, out = {"n": args.n, "samples": args.samples, "seed": args.seed}, args.out
        else:
            cfg = _load_config(args.config)
            out = cfg.get("output_dir", "out")
        rep = SolveReport(command=cmd, config_echo=cfg)
        t0 = time.perf_counter()
        try:
            if out is not None:  # without --out the report goes to stdout alone
                os.makedirs(out, exist_ok=True)
            _HANDLERS[cmd](cfg, out, rep)
        except (ConfigError, OSError):
            raise
        except Exception as exc:  # solver-level failures surface as status "fail"
            sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
            rep.fail(f"{type(exc).__name__}: {exc}")
            for key in ("history", "where", "point", "per_step"):
                if getattr(exc, key, None) is not None:
                    rep.iteration_traces[key] = getattr(exc, key)
        rep.timings["wall_time_s"] = time.perf_counter() - t0
        return _emit(rep, out)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return EXIT_IO


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
