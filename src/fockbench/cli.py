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
import dataclasses
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

EXIT_USAGE, EXIT_CONFIG, EXIT_IO = 3, 4, 5


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema: every key a config may hold and the check of its value


def _value(test, what, cast=None):
    """The check of one config value: ``test(v)`` holds, or the config error
    names the key and what it must be.  Returns ``v``, or ``cast(v)``."""

    def check(v, key):
        if not test(v):
            raise ConfigError(f"{key!r} must be {what}, got {v!r}")
        return v if cast is None else cast(v)

    return check


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v):
    """A finite JSON number: bools and strings are not numbers."""
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _is_pair(v):
    return isinstance(v, list) and len(v) == 2 and all(map(_is_real, v))


def _one_of(*names):
    return _value(lambda v: v in names, " or ".join(map(repr, names)))


def _optional(check):
    """``check``, with null read as the key left out."""
    return lambda v, key: None if v is None else check(v, key)


_INTEGER = _value(_is_int, "an integer")
_COUNT = _value(lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_SEED = _value(lambda v: _is_int(v) and v >= 0, "an integer >= 0")
_REAL = _value(_is_real, "a finite number", float)
_LENGTH = _value(lambda v: _is_real(v) and v > 0, "a finite positive number", float)
_COMPLEX = _value(
    lambda v: _is_real(v) or _is_pair(v),
    "a finite number or [re, im] pair",
    lambda v: complex(*v) if isinstance(v, list) else complex(v),
)
_POINT = _value(_is_pair, "an [x, y] pair of finite numbers", lambda v: (float(v[0]), float(v[1])))
_BOOL = _value(lambda v: isinstance(v, bool), "true or false")
_TEXT = _value(lambda v: isinstance(v, str), "a string")
_PATH = _value(lambda v: isinstance(v, str) and "\0" not in v, "a path string")
_OBJECT = _value(lambda v: isinstance(v, dict), "an object")
_GRIDS = _value(
    lambda v: isinstance(v, list) and all(map(_is_int, v)) and len(set(v)) >= 2,
    "a list of two or more distinct integer grid sizes",
    lambda v: sorted(set(v)),
)


def _table(schema, required=()):
    """The check of an object: each key by its own check in ``schema``; a key
    ``schema`` lacks, or a missing required one, is a config error."""

    def check(spec, key):
        _OBJECT(spec, key)
        for k in spec:
            if k not in schema:
                raise ConfigError(f"unknown key {k!r} in {key!r}; known keys: {', '.join(sorted(schema))}")
        for k in required:
            if k not in spec:
                raise ConfigError(f"{key!r} is missing {k!r}")
        return {k: schema[k](v, k) for k, v in spec.items()}

    return check


_FIELD_TYPES = {
    "constant": _table({"type": _TEXT, "value": _COMPLEX}),
    "bump": _table({"type": _TEXT, "center": _POINT, "radius": _LENGTH, "amplitude": _COMPLEX}),
    "file": _table({"type": _TEXT, "path": _PATH}, required=("path",)),
}


def _field(spec, key):
    """The check of a field spec: its "type" picks the table of its keys."""
    kind = _one_of(*_FIELD_TYPES)(_OBJECT(spec, key).get("type"), "type")
    return _FIELD_TYPES[kind](spec, key)


def _family(spec, key):
    """The check of a field family: decimal component index -> field spec;
    returns the specs by integer index (BeltramiField checks they lie in 2..n)."""
    comps = {}
    for k, sub in _OBJECT(spec, key).items():
        if not (k.isascii() and k.isdigit()):
            raise ConfigError(f"{k!r} must be a component index in {key!r}")
        comps[int(k)] = _field(sub, f"{key}['{k}']")
    return comps


# Every key the CLI reads, with the check of its value.  A key left out takes
# the default of the code that reads it.  The ranges the library checks itself
# (Chart: nx, ny >= 8 and 0 < radius <= 0.7; NewtonConfig: counts, tolerances
# and preconditioner; HamiltonianTerm: ell in 2..n; BeltramiField: component
# indices in 2..n) are left to it.
_N = _value(lambda v: _is_int(v) and v >= 2, "an integer >= 2")
_SCHEMA = _table(
    {
        "n": _N,
        "chart": _table(
            {
                "kind": _one_of("periodic-rect", "dirichlet-disk"),
                "nx": _INTEGER, "ny": _INTEGER, "lx": _LENGTH, "ly": _LENGTH, "radius": _LENGTH,
            },
            required=("kind", "nx", "ny"),
        ),
        "beltrami": _family,
        "covector": _family,
        "hamiltonian": _table({"ell": _INTEGER, "eps": _REAL, "steps": _COUNT, "w": _field}, required=("ell", "w")),
        "solver": _table(
            {
                "continuation_steps": _INTEGER, "newton_tol": _REAL, "max_newton": _INTEGER,
                "cg_tol": _REAL, "max_cg": _INTEGER, "fd_check": _BOOL, "preconditioner": _TEXT,
            }
        ),
        "grids": _optional(_GRIDS),
        "hermitian": _one_of("fuchsian", "identity"),
        "output_dir": _PATH,
    },
    required=("n", "chart"),
)


def _chart(kind, nx, ny, lx=1.0, ly=1.0, radius=0.5) -> chm.Chart:
    return chm.periodic_chart(nx, ny, lx, ly) if kind == "periodic-rect" else chm.disk_chart(nx, ny, radius)


def _build_scalar(chart, spec, name) -> np.ndarray:
    """The grid values of a checked field spec; ``name`` labels it in errors."""
    kind = spec["type"]
    if kind == "constant":
        data = np.full((chart.nx, chart.ny), spec.get("value", 0j))
    elif kind == "bump":
        data = chm.bump_field(chart, **{k: v for k, v in spec.items() if k != "type"}).data
    else:
        try:
            data = chm.load_scalar_csv(spec["path"], chart).data
        except ValueError as exc:  # a malformed file; a missing one stays an I/O error
            raise ConfigError(f"{name}: {exc}") from exc
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise ConfigError(f"{name} is not finite at grid point ({i}, {j}): {data[i, j]!r}")
    return data


def _load_config(path, cmd):
    """The config at ``path`` as read, for the report's echo, and as the
    inputs of ``cmd``: its values checked against ``_SCHEMA``, then its charts,
    fields, NewtonConfig and Hamiltonian term built, where the library's range
    checks (a ValueError) are config errors too.  Nothing is written yet."""
    try:
        with open(path) as fh:
            echo = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    cfg = _SCHEMA(echo, "config")
    if cmd == "flow" and "hamiltonian" not in cfg:
        raise ConfigError("'config' is missing 'hamiltonian', which flow reads")
    if cmd == "fillin" and cfg.get("hermitian") == "fuchsian" and cfg.get("beltrami"):
        raise ConfigError("'beltrami' must be empty with 'hermitian': 'fuchsian', whose reference has mu = 0")
    reference = cmd in ("fuchsian", "solve") or (cmd == "fillin" and cfg.get("hermitian") == "fuchsian")
    if reference and cfg["chart"]["kind"] == "periodic-rect":
        raise ConfigError(
            f"{cmd} needs a 'dirichlet-disk' chart: no reference solution exists on a 'periodic-rect' chart"
        )
    n = cfg["n"]
    try:
        ch = cfg["chart"] = _chart(**cfg["chart"])
        cfg["grids"] = [dataclasses.replace(ch, nx=nx, ny=nx) for nx in cfg.get("grids") or ()]
        for section in ("beltrami", "covector"):
            comps = {k: _build_scalar(ch, spec, f"{section}['{k}']") for k, spec in cfg.get(section, {}).items()}
            cfg[section] = chm.BeltramiField(ch, n, comps)
        cfg["solver"] = sv.NewtonConfig(**cfg.get("solver", {}))
        if "hamiltonian" in cfg:
            ham = cfg["hamiltonian"]
            w = chm.ScalarField(ch, _build_scalar(ch, ham["w"], "hamiltonian['w']"))
            ham["term"] = hf.HamiltonianTerm(ham["ell"], w)
            ham["term"].check(n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return echo, cfg


# ---------------------------------------------------------------------------
# fiber-verify


def _sup(values) -> float:
    """Largest of ``values``, 0.0 for none, NaN if any is NaN (``max()`` keeps
    whichever comes first)."""
    return float(np.max(list(values), initial=0.0))


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
    involution, compact = [], []
    for _ in range(cfg["samples"]):
        x = fiber.random_traceless(n, rng)
        involution.append(np.abs(sigma(rho(x)) - rho(sigma(x))).max())
        involution.append(np.abs(sigma(sigma(x)) - x).max())
        involution.append(np.abs(rho(rho(x)) - x).max())
        # rho fixes su(n): it fixes the anti-hermitian part and negates the hermitian one
        anti, herm = x - fiber.dagger(x), x + fiber.dagger(x)
        compact += [np.abs(rho(anti) - anti).max(), np.abs(rho(herm) + herm).max()]
    checks["involution_algebra"] = _sup(involution)
    checks["rho_fixes_su_n"] = _sup(compact)
    cb = fiber.centralizer_basis(triple.F)
    checks["centralizer_dim_defect"] = abs(len(cb) - (n - 1))
    checks["sigma_negates_centralizer"] = _sup(np.abs(sigma(b) + b).max() for b in cb)
    brackets, image = [], []
    ad = fiber.ad_columns(triple.F, fiber.sl_basis(n))
    for i, b1 in enumerate(cb):
        brackets += [np.abs(br(b1, b2)).max() for b2 in cb[i + 1 :]]
        sol, *_ = np.linalg.lstsq(ad, b1.reshape(-1), rcond=None)
        image.append(np.abs(ad @ sol - b1.reshape(-1)).max())
    checks["center_in_image"] = _sup(image)
    checks["centralizer_abelian"] = _sup(brackets)
    if n <= 6:
        wb = fiber.weight_basis(n)
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
        if not val <= tol:  # NaN fails
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
    parts = fp.four_way(f, phi2, fiber.dagger(phi2), fiber.dagger(f), omega)
    resid = fp.fiber_norms(parts.sum(axis=0) - omega) / np.maximum(fp.fiber_norms(omega), 1e-300)
    worst["reconstruction"] = _sup([worst["reconstruction"], resid.max()])
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
    worst["q_involution"] = _sup([worst["q_involution"], q2.max(initial=0.0)])
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
    if not worst["reconstruction"] <= 1e-10:  # NaN fails
        rep.fail("four-way reconstruction above 1e-10")
    if worst["dims"] or worst["gram_vs_contraction"]:
        rep.fail("discrete invariants violated")
    if not worst["q_involution"] <= 1e-9:
        rep.fail("Q is not an involution")


# ---------------------------------------------------------------------------
# config-driven commands


def _cmd_fuchsian(cfg, out, rep):
    n, ch, grids = cfg["n"], cfg["chart"], cfg["grids"]
    if grids:
        residuals = {str(g.nx): sv.fuchsian_reference(n, g).curvature_sup for g in grids}
        rep.residual_norms = dict(residuals, ratio=residuals[str(grids[0].nx)] / residuals[str(grids[1].nx)])
    else:
        fd = sv.fuchsian_reference(n, ch)
        rep.residual_norms = {"residual_sup": fd.curvature_sup, "c0": fd.c0}
        chm.save_lieform_csv(os.path.join(out, "A.csv"), fd.A)
        chm.save_matrix_field_csv(os.path.join(out, "h.csv"), ch, fd.h.data)
        chm.save_scalar_csv(os.path.join(out, "g.csv"), fd.g)


def _cmd_fillin(cfg, out, rep):
    n, ch = cfg["n"], cfg["chart"]
    if cfg.get("hermitian") == "fuchsian":
        fd = sv.fuchsian_reference(n, ch)
        phi, h, a = fd.Phi, fd.h, fd.A
    else:
        phi, h = hf.fock_form(ch, cfg["beltrami"]), cn.identity_hermitian(ch, n)
        a = cn.fill_in(phi, h=h)
    chm.save_lieform_csv(os.path.join(out, "A.csv"), a)
    diagnostics = cn.connection_report(phi, a, h=h)
    rep.residual_norms = {k: v for k, v in diagnostics.items() if isinstance(v, float)}
    for msg in diagnostics["warnings"]:
        rep.warn(msg)


def _cmd_solve(cfg, out, rep):
    ncfg = cfg["solver"]
    fd = sv.fuchsian_reference(cfg["n"], cfg["chart"])
    eta, srep = sv.newton_continuation(fd, cfg["beltrami"], ncfg)
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
    if ncfg.fd_check:
        rep.iteration_traces["fd_checks"] = srep["fd_checks"]
    rep.timings["newton_wall_time_s"] = srep["wall_time_s"]
    if not (srep["final_residual"] <= ncfg.newton_tol):
        rep.fail(f"final residual {srep['final_residual']:.3e} above newton_tol")


def _cmd_muholo(cfg, out, rep):
    n, ch, mu, t = cfg["n"], cfg["chart"], cfg["beltrami"], cfg["covector"]
    phi = hf.fock_form(ch, mu)
    a = cn.inject_covector(phi, cn.identity_hermitian(ch, n), t)
    tensor = hf.mu_holo_residual(mu, t)
    gauge = hf.gauge_muholo_residual(phi, a)
    mask = ch.mask()
    norms = {}
    for k in range(2, n + 1):
        norms[f"tensor_{k}"] = float(np.abs(tensor[k][mask]).max())
        norms[f"gauge_{k}"] = float(np.abs(gauge[k][mask]).max())
        norms[f"difference_{k}"] = float(np.abs((tensor[k] - gauge[k])[mask]).max())
    norms["equivalence_sup"] = diff_sup = _sup(norms[f"difference_{k}"] for k in range(2, n + 1))
    rep.residual_norms = norms
    for k in range(2, n + 1):
        chm.save_scalar_csv(os.path.join(out, f"tensor_residual_{k}.csv"), chm.ScalarField(ch, tensor[k]))
        chm.save_scalar_csv(os.path.join(out, f"gauge_residual_{k}.csv"), chm.ScalarField(ch, gauge[k]))
    floor = 100.0 * ch.hx**2
    if not diff_sup <= floor:  # NaN warns
        rep.warn(f"gauge/tensor residual difference {diff_sup:.3e} above {floor:.1e}")


def _cmd_flow(cfg, out, rep):
    n, ch, mu, t = cfg["n"], cfg["chart"], cfg["beltrami"], cfg["covector"]
    spec = cfg["hamiltonian"]
    ham, eps, steps = spec["term"], spec.get("eps", 1e-3), spec.get("steps", 1)
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
            "mu_holo_sup": _sup(np.abs(resid[k][mask]).max() for k in range(2, n + 1)),
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
    for when, norms in rep.residual_norms.items():
        for key, val in norms.items():
            if not np.isfinite(val):
                rep.fail(f"{when}.{key} is not finite: {val!r}")


# ---------------------------------------------------------------------------

# Each handler fills the run's report from its checked config and built inputs,
# writing any field CSVs into the output directory; run() builds, times and
# emits the report.
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
    """Run one subcommand and emit its one report.  The config is checked and
    its inputs built before the output directory is made; a handler that
    raises anything but an I/O error leaves a ``fail`` report with the
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
            echo = cfg = {"n": _N(args.n, "--n"), "samples": _COUNT(args.samples, "--samples")}
            cfg["seed"] = _SEED(args.seed, "--seed")
            out = args.out
        else:
            echo, cfg = _load_config(args.config, cmd)
            out = cfg.get("output_dir", "out")
        rep = SolveReport(command=cmd, config_echo=echo)
        t0 = time.perf_counter()
        try:
            if out is not None:  # without --out the report goes to stdout alone
                os.makedirs(out, exist_ok=True)
            _HANDLERS[cmd](cfg, out, rep)
        except OSError:
            raise
        except Exception as exc:  # solver-level failures surface as status "fail"
            sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
            rep.fail(f"{type(exc).__name__}: {exc}")
            for key in ("history", "where", "point", "per_step"):
                if getattr(exc, key, None) is not None:
                    rep.iteration_traces[key] = getattr(exc, key)
        rep.timings["wall_time_s"] = time.perf_counter() - t0
        text = rep.to_json()
        if out is not None:
            with open(os.path.join(out, "report.json"), "w") as fh:
                fh.write(text + "\n")
        print(text)
        return rep.exit_code()
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
