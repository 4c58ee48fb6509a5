"""Reduction of steady and travelling-wave equations to a singular ODE.

For travelling waves with speed sigma the second-order system
[A(U, U') - sigma E(U)] U' = B(U) U'' closes, after eliminating the
density gradient through the first (hyperbolic) row, into

    dU/dx = F(U) / zeta(U),        zeta(U) = v - sigma,

on the extended state U = (rho, v, theta, z1, z2) with z = (v_x, theta_x).
Steady solutions are the sigma = 0 case.

The hyperbolic row gives rho_x = w(U) = -(A21^T z) / (a11 (v - sigma)),
which is F[0] / zeta and is singular on the sonic set v = sigma.
Multiplying the parabolic rows by (v - sigma) removes that singularity
from everything except the shared 1/zeta prefactor: every rho_x inside
A22 appears multiplied by (v - sigma) and is replaced by the closed form
-(A21^T z)/a11, while v_x occurrences take z1 directly. The resulting F is polynomial in z (degree
two, through the gradient-dependent entries of A22) and vanishes
identically on the equilibrium set z = 0.
"""

from __future__ import annotations

import linecache
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .gas import GasModel, _lowest, _ndarray, _pow_each


@dataclass(frozen=True)
class SingularODE:
    """Autonomous system dV/dx = F(V)/zeta(V).

    F_eval and zeta_eval take V as a list of Python floats and must not
    modify it. F_eval returns a list of as many floats and zeta_eval a
    float. The integrators step on such lists, so no array is built per
    evaluation; callers holding an array convert it once with .tolist().
    The desingularized companion is dV/dtau = F(V), dx/dtau = zeta(V).

    The integrators inline a right-hand side into each stage of a step as
    an `RhsSource`: the one `rhs_functions` built F_eval and zeta_eval
    from (`tw_singular_ode` and the flux-form oracle), while they are
    exactly that pair, or else one that calls them once per stage.

    These reductions also take V as a list of equal-length float arrays,
    one column per component (V = list(A.T) for samples A of shape (n,
    d)). F_eval then returns a list of arrays and zeta_eval an array,
    each entry bit for bit what the float call gives at that sample; an
    inadmissible sample anywhere is a DomainError. The profile checks
    evaluate all their samples in one such call.
    """

    F_eval: Callable[[list[float]], list[float]]
    zeta_eval: Callable[[list[float]], float]
    label: str = ""


@dataclass(frozen=True)
class RhsSource:
    """A right-hand side F, zeta written once, as straight-line float source.

    ``name`` tells the sources apart in compiled-code caches and file
    names. The source reads the components of V, named by ``state`` in order,
    and the constants named by ``consts``. It runs the statements ``pre``,
    requires every name in ``positive`` to be > 0 (NaN fails), then runs
    ``lines``; ``F`` holds the expressions of F's components and ``zeta``
    that of zeta. A power is written ``a ** b`` between two names or
    literals, so the column rendering can take it entry by entry
    (`_pow_each`). ``reject`` is the statement an inadmissible state
    runs in the callbacks `rhs_functions` builds, a division by zero in
    ``pre`` included, and ``overflow`` the message of the DomainError an
    OverflowError of ``lines`` becomes there, and a ZeroDivisionError of
    ``lines`` too (a divisor that underflowed to 0, where the quotient
    overflows); ``{V}`` names the state. A divisor in ``lines`` is written
    as a name or a literal, so the column rendering can test it. A
    source that is never built into callbacks leaves both empty. The
    step kernels of `sode` splice the same statements into every stage,
    with an unusable stage in place of both errors, so the source must
    not use a name of the step kernel.
    """

    name: str
    state: tuple[str, ...]
    consts: tuple[str, ...]
    pre: tuple[str, ...]
    positive: tuple[str, ...]
    lines: tuple[str, ...]
    F: tuple[str, ...]
    zeta: str
    reject: str = ""
    overflow: str = ""

    def admissible(self) -> str:
        """The admissibility test on floats."""
        return " and ".join(f"{name} > 0.0" for name in self.positive)


_POWER = re.compile(r"(\w+) \*\* (\w+)")
_DIVISOR = re.compile(r"/ (\w+)")


def _nonzero(x):
    """x, unless an entry of it is 0: then ZeroDivisionError, as a float division by that entry raises."""
    if not np.all(x):
        raise ZeroDivisionError("division by zero")
    return x


def _closure_source(rhs: RhsSource) -> str:
    """Source of bind(*consts) -> (F, zeta) for rhs, on floats and on column arrays.

    A division by zero in ``pre`` fails the admissibility test, on
    columns as the FloatingPointError numpy raises in place of a warning.
    On columns every divisor of ``lines`` that the test does not keep
    positive goes through `_nonzero`, so a column call raises exactly
    where the float call at one of its samples raises. A float product
    past the float range is inf, and inf - inf NaN, with no warning, so
    the columns of ``lines`` and F run under ``np.errstate(over="ignore",
    invalid="ignore")``.
    """
    unpack = f"        {', '.join(rhs.state)}, = V"

    def body(pre, test, lines, division):
        return [
            "try:", *("    " + line for line in pre), f"    ok = {test}",
            f"except {division}:", "    ok = False",
            "if not ok:", f"    {rhs.reject}",
            "try:", *("    " + line for line in lines),
            "except (OverflowError, ZeroDivisionError):", f"    raise DomainError(f{rhs.overflow!r}) from None",
        ]

    def divisor(match):
        name = match.group(1)
        return match.group(0) if name in rhs.positive else f"/ _nonzero({name})"

    def columns(lines):
        return [_DIVISOR.sub(divisor, _POWER.sub(r"_pow_each(\1, \2)", line)) for line in lines]

    floats = body(rhs.pre, rhs.admissible(), rhs.lines, "ZeroDivisionError")
    positive = " and ".join(f"np.all({name} > 0.0)" for name in rhs.positive)
    raising = ['with np.errstate(divide="raise", invalid="raise"):', *("    " + line for line in columns(rhs.pre))]
    silent = ['with np.errstate(over="ignore", invalid="ignore"):', *("    " + line for line in columns(rhs.lines))]
    silent.append(f"    return [{', '.join(rhs.F)}]")
    cols = body(raising if rhs.pre else [], positive, silent, "FloatingPointError")
    out = [
        f"def bind({', '.join(rhs.consts)}):",
        "    def F(V):",
        unpack,
        f"        if {rhs.state[0]}.__class__ is not _ndarray:",
        *("            " + line for line in floats),
        f"            return [{', '.join(rhs.F)}]",
        *("        " + line for line in cols),
        "",
        "    def zeta(V):",
        unpack,
        f"        return {rhs.zeta}",
        "",
        "    return F, zeta",
    ]
    return "\n".join(out) + "\n"


def _compiled(cache: dict, key, filename: str, source: Callable[[], str], scope: dict) -> Callable:
    """The function the text source() defines, compiled once per cache key against the globals scope.

    The text is registered with linecache as filename, so tracebacks
    through it show the generated line.
    """
    fn = cache.get(key)
    if fn is None:
        src = source()
        linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
        namespace: dict = {}
        exec(compile(src, filename, "exec"), scope, namespace)
        (fn,) = namespace.values()
        cache[key] = fn
    return fn


_BINDERS: dict[str, Callable] = {}  # rhs name -> bind, compiled on first use


def rhs_functions(rhs: RhsSource, constants: tuple) -> tuple[Callable, Callable]:
    """F_eval and zeta_eval of rhs at the constants, in the order of rhs.consts.

    They take float lists and column arrays (see `SingularODE`). F
    carries ``built = (F, zeta, rhs, constants)``, which is how the step
    kernels recognize the pair; a wrapper that copies F's attributes is
    not F, so it runs as a call per stage.
    """
    bind = _compiled(_BINDERS, rhs.name, f"<shocklayer rhs {rhs.name}>", lambda: _closure_source(rhs), globals())
    F, zeta = bind(*constants)
    F.built = (F, zeta, rhs, constants)
    return F, zeta


def _gas_constants(gas: GasModel) -> tuple:
    """R, e_theta = R / (gamma - 1), then nu's and k's coefficient and exponent: the first constants of a source."""
    nu, k = gas.nu_law, gas.k_law
    return gas.R, gas.R / (gas.gamma - 1.0), nu.coeff, nu.exponent, k.coeff, k.exponent


# The travelling-wave right-hand side: the block algebra of the assemblers
# `system.assemble_E`, `assemble_A` and `assemble_B` spelled out for the
# ideal gas, with rho_x (v - sigma) already replaced by -(A21^T z)/a11 =
# -rho z1 and v_x by z1. nu and k are the power laws of `PowerLaw`,
# written out as it evaluates them. Its state names are the extended
# state's, which `profiles` compares column by column.
TW_RHS = RhsSource(
    name="travelling-wave",
    state=("rho", "v", "theta", "z1", "z2"),
    consts=("R", "e_theta", "nu_c", "nu_e", "k_c", "k_e", "sig"),
    pre=(),
    positive=("rho", "theta"),
    lines=(
        "s = v - sig",
        "p_rho = R * theta",
        "p_theta = R * rho",
        "nu = nu_c if nu_e == 0.0 else nu_c * rho ** nu_e",
        "dnu = 0.0 if nu_e == 0.0 else nu_e * nu / rho",
        "k = k_c if k_e == 0.0 else k_c * rho ** k_e",
        "dk = 0.0 if k_e == 0.0 else k_e * k / rho",
        "theta_sq = theta ** 2",
        "q = rho * z1",  # A21^T z / a11
        "rss = rho * s * s",
        # rows of (A22 - sigma E22)(v - sigma) after the substitution
        "M11 = (rss + dnu * q) / theta",
        "M12 = p_theta * s / theta",
        "M21 = (p_theta - nu * z1 / theta) * s / theta",
        "M22 = (rss * e_theta + dk * q) / theta_sq",
        # subtract the Schur-type coupling A21 A21^T / a11 (only entry 11)
        "K11 = M11 - rho * p_rho / theta",
        "Fz1 = (theta / nu) * (K11 * z1 + M12 * z2)",
        "Fz2 = (theta_sq / k) * (M21 * z1 + M22 * z2)",
    ),
    F=("-q", "s * z1", "s * z2", "Fz1", "Fz2"),
    zeta="v - sig",
    reject=(
        'raise DomainError(f"extended state needs rho > 0 and theta > 0, '
        'got rho={_lowest(rho)}, theta={_lowest(theta)}")'
    ),
    overflow="F overflows a float at the extended state {V}",
)


def tw_singular_ode(gas: GasModel, sigma: float) -> SingularODE:
    """Travelling-wave reduction at speed sigma as a SingularODE.

    F and zeta are `TW_RHS` at the gas and sigma. Keeping the closed form
    inline makes the right-hand side cheap and lets the tests cross-check
    it against an independent assembly from the blocks.

    F and zeta take a state or column arrays (see `SingularODE`). A state
    whose transport laws or theta^2 overflow a float, or underflow to 0
    (theta below about 1.6e-162), is a DomainError that names it.
    """
    sig = float(sigma)
    F, zeta = rhs_functions(TW_RHS, (*_gas_constants(gas), sig))
    label = "steady" if sig == 0.0 else f"travelling sigma={sig:g}"
    return SingularODE(F_eval=F, zeta_eval=zeta, label=label)


def steady_singular_ode(gas: GasModel) -> SingularODE:
    """Steady (boundary layer) reduction; the sigma = 0 travelling case."""
    return tw_singular_ode(gas, 0.0)
