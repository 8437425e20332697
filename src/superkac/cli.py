"""Command-line entry point.

Verbs: build, verify, typicality, replicate, twist, heisenberg, export.
Exit codes: 0 all checks passed, 1 a mathematical verification failed,
2 invalid input or configuration.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
from fractions import Fraction

from superkac import heisenberg as hsb
from superkac import jsonio
from superkac import matryoshka as mat
from superkac.algebra import (InputError, SuperAlgebraSpec,
                              build_fundamental_rep, check_super_relations,
                              grading_report, structure_constants,
                              super_jacobi_report)
from superkac.evenrep import build_even_irrep
from superkac.kacmod import induce, kac_typicality, singular_vectors
from superkac.record import Record
from superkac.report import VerificationReport

ACTIONS = ("build", "verify", "typicality", "replicate", "twist",
           "heisenberg", "export")

# the path fields each verb writes: --out the built module, --report the
# verification report
WRITES = {"build": ("out",), "export": ("out",), "verify": ("report",),
          "typicality": ("report",), "replicate": ("out", "report"),
          "twist": ("out", "report"), "heisenberg": ("out", "report")}


class JobConfig(Record, frozen=False):
    action: str
    flavor: str = "sl"
    m: int = 2
    n: int = 1
    labels: tuple = ()
    b: object = "symbolic"        # "symbolic" | Fraction
    c: object = "symbolic"
    N: int = 2
    lambdas: tuple = ()
    nu: tuple = ()
    n_twist: int = 2
    out: str | None = None
    report: str | None = None

    def _validate(self):
        """Type-check and normalize every field; a bad value raises an
        InputError that names the field."""
        if self.action not in ACTIONS:
            raise InputError(f"unknown action {self.action!r}")
        if self.flavor not in ("sl", "gl"):
            raise InputError(f"flavor must be 'sl' or 'gl', got {self.flavor!r}")
        for name in ("m", "n", "N", "n_twist"):
            _integer(name, getattr(self, name))
        if self.m < 1 or self.n < 1:
            raise InputError("m and n must be positive integers")
        self.labels = _sequence("labels", self.labels, _integer)
        self.lambdas = _sequence("lambdas", self.lambdas, _rational)
        self.nu = _sequence("nu", self.nu, _rational)
        for name in ("b", "c"):
            value = getattr(self, name)
            if value != "symbolic":
                setattr(self, name, _rational(name, value))
        for name in ("out", "report"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise InputError(f"{name} must be a file path")
            if getattr(self, name) is not None \
                    and name not in WRITES[self.action]:
                raise InputError(
                    f"{name} is not written by {self.action}, which writes "
                    f"only {' and '.join(WRITES[self.action])}")
        if self.flavor == "gl" and self.b != "symbolic" \
                and self.c == "symbolic":
            raise InputError("c must be bound when b is: a gl job with a "
                             "rational b needs a rational c as well")

    def bindings(self) -> dict:
        out = {}
        if isinstance(self.b, Fraction):
            out["b"] = self.b
        if self.flavor == "gl" and isinstance(self.c, Fraction):
            out["c"] = self.c
        return out


def _integer(name: str, value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{name} must be an integer, got {value!r}")


def _rational(name: str, value) -> Fraction:
    if isinstance(value, (int, str, Fraction)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"{name} must be an exact rational such as 5/7, "
                     f"got {value!r}")


def _sequence(name: str, value, item) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{name} must be a list, got {value!r}")
    return tuple(item(name, x) for x in value)


def _flag_list(name: str, text: str | None, item=str):
    """A comma-separated flag value as a tuple, or None when not given."""
    if text is None:
        return None
    chunks = [chunk.strip() for chunk in text.split(",")] if text.strip() \
        else []
    try:
        return tuple(item(chunk) for chunk in chunks)
    except ValueError:
        raise InputError(f"{name} must be a comma-separated list of "
                         f"{item.__name__} values, got {text!r}") from None


def config_from_args(args: argparse.Namespace) -> JobConfig:
    """Flags the user gave win over --config values, which win over the
    JobConfig defaults."""
    values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as err:
            raise InputError(f"config {args.config!r} cannot be read: "
                             f"{err.strerror or err}") from None
        except ValueError as err:
            raise InputError(f"config {args.config!r} is not valid JSON: "
                             f"{err}") from None
        if not isinstance(raw, dict):
            raise InputError("config must be a JSON object of JobConfig fields")
        known = set(JobConfig._fields)
        unknown = sorted(set(raw) - known)
        if unknown:
            raise InputError(f"unknown config fields rejected: {unknown}")
        values.update(raw)
    flags = {
        "flavor": args.flavor,
        "m": args.m,
        "n": args.n,
        "labels": _flag_list("labels", args.labels, int),
        "b": args.b,
        "c": args.c,
        "N": args.N,
        "lambdas": _flag_list("lambdas", args.lambdas),
        "nu": _flag_list("nu", args.nu),
        "n_twist": args.n_twist,
        "out": args.out,
        "report": args.report,
    }
    values.update({key: value for key, value in flags.items()
                   if value is not None})
    values["action"] = args.action
    return JobConfig(**values)


def make_parser() -> argparse.ArgumentParser:
    # Flags default to None so that config_from_args can tell which ones
    # were given; the defaults live in JobConfig.
    parser = argparse.ArgumentParser(
        prog="superkac",
        description="Exact Kac modules of gl/sl(m|n) with a symbolic odd "
                    "label, their indecomposable nested replications, twists "
                    "and Heisenberg-superalgebra structure.")
    parser.add_argument("action", choices=ACTIONS)
    parser.add_argument("--algebra", dest="flavor", choices=("sl", "gl"),
                        help="default sl")
    parser.add_argument("--m", type=int, help="default 2")
    parser.add_argument("--n", type=int, help="default 1")
    parser.add_argument("--labels",
                        help="comma-separated even Dynkin labels, e.g. '1,0'")
    parser.add_argument("--b",
                        help="'symbolic' (default) or a rational like 5/7")
    parser.add_argument("--c",
                        help="gl central charge: 'symbolic' (default) or a "
                             "rational; needed when b is rational")
    parser.add_argument("--N", type=int,
                        help="number of replication copies (default 2)")
    parser.add_argument("--lambdas",
                        help="comma-separated coupling scalars, e.g. '2,-3/5'")
    parser.add_argument("--nu",
                        help="twist direction on (y, z0), e.g. '1,0'")
    parser.add_argument("--n-twist", dest="n_twist", type=int,
                        help="default 2")
    parser.add_argument("--out", help="artifact JSON path")
    parser.add_argument("--report", help="report JSON path")
    parser.add_argument("--config",
                        help="JSON JobConfig file; explicit flags win")
    return parser


def _build_stack(cfg: JobConfig):
    spec = SuperAlgebraSpec(cfg.m, cfg.n, cfg.flavor)
    rep = build_fundamental_rep(spec)
    sc = structure_constants(rep)
    labels = cfg.labels if cfg.labels else tuple([0] * spec.rank)
    L = build_even_irrep(rep.datum, labels, sc)
    K = induce(L, rep.datum, sc)
    return spec, rep, sc, K


def _check_writable(field: str, path: str) -> None:
    """Refuse, before the job runs, a path that cannot be written: a
    directory, or a file whose directory is missing or not writable.  The
    file is not opened, so a job that fails leaves an old file as it was."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise InputError(f"{field} {path!r} cannot be written: "
                     f"{os.strerror(code)}")


def _write(field: str, data: dict, path: str) -> None:
    """Write data to the path given in a config field, naming the field if
    the path cannot be written."""
    try:
        jsonio.export_json(data, path)
    except OSError as err:
        raise InputError(f"{field} {path!r} cannot be written: "
                         f"{err.strerror or err}") from None
    print(f"wrote {path}")


def _emit(cfg: JobConfig, module, report: VerificationReport | None) -> None:
    if module is not None and cfg.out:
        _write("out", jsonio.module_to_json(module, cfg.bindings() or None),
               cfg.out)
    if report is not None:
        print(report.summary())
        if cfg.report:
            _write("report", jsonio.report_to_json(report), cfg.report)


def run(cfg: JobConfig) -> int:
    bindings = cfg.bindings()
    for name in WRITES[cfg.action]:
        if getattr(cfg, name):
            _check_writable(name, getattr(cfg, name))

    if cfg.action in ("build", "export"):
        if cfg.action == "export" and not cfg.out:
            raise InputError("export needs --out")
        spec, rep, sc, K = _build_stack(cfg)
        print(f"{spec} a={list(K.labels)}: Kac module of dimension {K.dim} "
              f"(2^{K.odd_count} x {K.L.dim}), params {list(K.params)}")
        _emit(cfg, K, None)
        return 0

    if cfg.action == "verify":
        spec, rep, sc, K = _build_stack(cfg)
        report = VerificationReport(f"verification of {spec} a={list(K.labels)}")
        report.extend(super_jacobi_report(sc))
        report.extend(grading_report(sc))
        report.extend(check_super_relations(
            K.matrices, sc, f"Kac module relations, symbolic b"))
        degs = VerificationReport("degree profile")
        bad = [str(lab) for lab, m in K.matrices.items()
               if (lab.kind == "u" and m.degree("b") > 1)
               or (lab.kind in ("h", "e", "f", "v", "z0") and m.degree("b") > 0)]
        if bad:
            degs.add_fail("deg_b(u) <= 1 and deg_b(h,e,f,v,z0) = 0",
                          ", ".join(bad))
        else:
            degs.add_pass("deg_b(u) <= 1 and deg_b(h,e,f,v,z0) = 0")
        report.extend(degs)
        _emit(cfg, None, report)
        return 0 if report.ok else 1

    if cfg.action == "typicality":
        spec, rep, sc, K = _build_stack(cfg)
        ty = kac_typicality(K)
        print(f"{spec} a={list(K.labels)}")
        print(f"  s(b) = {ty.s_poly}")
        print(f"  factors: {[str(f) for f in ty.factors]}")
        print(f"  s(b) = constant * product(factors): {ty.proportional} "
              f"(constant {ty.constant})")
        print(f"  root multisets coincide: {ty.roots_match}")
        report = VerificationReport(f"typicality of {spec} a={list(K.labels)}")
        if ty.roots_match and ty.proportional:
            report.add_pass("root multiset equality and proportionality")
        else:
            report.add_fail("root multiset equality", str(ty.s_poly))
        if isinstance(cfg.b, Fraction):
            types = ty.vanishing_types(cfg.b)
            verdict = "typical" if not types else f"atypical of type {list(types)}"
            print(f"  at b = {cfg.b}: {verdict}")
            sv = singular_vectors(K, bindings or {"b": cfg.b})
            layers = sorted({v.layer for v in sv.vectors})
            print(f"  singular vectors at layers {layers} "
                  f"({len(sv.vectors)} total)")
        _emit(cfg, None, report)
        return 0 if report.ok else 1

    if cfg.action == "replicate":
        spec, rep, sc, K = _build_stack(cfg)
        lambdas = cfg.lambdas if cfg.lambdas else tuple(
            [Fraction(1)] * (cfg.N - 1))
        module = mat.replicate(K, mat.ReplicationSpec(cfg.N, lambdas))
        report = VerificationReport(
            f"replication N={cfg.N} couplings={[str(x) for x in lambdas]}")
        # (i) goes through this module's binding of the relation checker,
        # the one verify calls, so one substitution reaches every verb
        report.extend(mat.block_relations_report(module,
                                                 check_super_relations))
        generic = {"b": Fraction(5, 7), "c": Fraction(3, 11)}
        profile = mat.jordan_minpoly_profile(
            module, {name: bindings.get(name, generic[name])
                     for name in K.params})
        degrees = sorted(set(profile.values()))
        if degrees == [cfg.N]:
            report.add_pass(f"hypercharge Jordan degree {cfg.N} on every "
                            "weight space")
        else:
            report.add_fail("hypercharge Jordan degree", str(degrees))
        _emit(cfg, module, report)
        return 0 if report.ok else 1

    if cfg.action == "twist":
        spec, rep, sc, K = _build_stack(cfg)
        if not cfg.nu:
            raise InputError("twist needs --nu")
        tspec = mat.TwistSpec(cfg.n_twist, cfg.nu)
        module = mat.twist(K, tspec)
        report = VerificationReport(
            f"twist n={cfg.n_twist} nu={[str(x) for x in tspec.nu]}")
        report.extend(mat.block_relations_report(module,
                                                 check_super_relations))
        _emit(cfg, module, report)
        return 0 if report.ok else 1

    if cfg.action == "heisenberg":
        spec, rep, sc, K = _build_stack(cfg)
        nu = cfg.nu if cfg.nu else ((1, 0) if spec.flavor == "gl" else (1,))
        tspec = mat.TwistSpec(cfg.n_twist, nu)
        H = hsb.build_heisenberg(sc)
        rho = hsb.rho_family(K, tspec)
        phi = hsb.phi_map(rho, H)
        report = VerificationReport(
            f"Heisenberg structure on {spec} a={list(K.labels)} "
            f"n={cfg.n_twist} nu={[str(x) for x in tspec.nu]}")
        report.extend(hsb.heisenberg_structure_report(H))
        report.extend(hsb.affine_in_t_report(rho))
        report.extend(hsb.check_phi_representation(phi, H))
        report.extend(hsb.mixed_derivative_report(rho))
        report.extend(hsb.compare_with_KH(phi))
        _emit(cfg, phi, report)
        return 0 if report.ok else 1

    raise InputError(f"unhandled action {cfg.action!r}")


def _attach_negative_values(argv) -> list:
    """'--nu -1,2' as '--nu=-1,2': argparse reads a value that starts with
    '-' as a flag unless it is a plain negative number such as -3."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and re.match(r"-\.?\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(_attach_negative_values(
        sys.argv[1:] if argv is None else argv))
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the job does not fit in memory; reduce its size "
              "fields (N, n-twist, labels)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
