"""Reference values for the benchmark's correctness checks.

Everything here is derived from the physics, not from gupho: the
relativistic levels come from the quantization condition solved by Newton's
method, the nonrelativistic levels and state norms from their closed forms,
overlaps of states with different exponents from an exact Gauss-Gegenbauer
rule built here (Golub-Welsch), and Gegenbauer polynomials from their
recurrence with the derivative taken as 2 lam C_{n-1}^{lam+1}.  Only the
standard library and numpy are used, so the oracle adds little to the
workload's memory.

Each ``check_*`` function returns a list of problems (empty when the result
passes); the benchmark counts an operation with any problem as failed.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-10  # energies, ratios, norms, overlaps, pointwise state values
LADDER_TOL = 1e-8  # ladder identity and ladder operator values

HBAR = 1.0  # every workload runs in natural units


# ---------------------------------------------------------------- energies


def rel_delta(mass: float, omega: float, eta: float, n: int) -> float:
    """E - m of relativistic level n.

    Root of h(d) = d - a b c - a K sqrt(b^2/4 + 2/(m (d + 2m))) with
    a = hbar omega m / 2, b = hbar eta omega, K = 2n + 1, c = n^2 + n + 1/2.
    h is increasing and concave, so Newton's method started at the upper
    bound d_hi = a b c + a K sqrt(b^2/4 + 1/m^2) lands left of the root after
    one step and then climbs to it monotonically.
    """
    a = 0.5 * HBAR * omega * mass
    b = HBAR * eta * omega
    k = 2 * n + 1
    abc = a * b * (n * n + n + 0.5)
    d = abc + a * k * math.sqrt(0.25 * b * b + 1.0 / (mass * mass))
    for _ in range(200):
        x = d + 2.0 * mass
        s = math.sqrt(0.25 * b * b + 2.0 / (mass * x))
        h = d - abc - a * k * s
        dh = 1.0 + a * k / (mass * x * x * s)
        step = h / dh
        d -= step
        if abs(step) <= 2e-16 * abs(d):
            break
    return d


def rel_energy(mass: float, omega: float, eta: float, n: int) -> float:
    return mass + rel_delta(mass, omega, eta, n)


def nr_energy(mass: float, omega: float, eta: float, n: int) -> float:
    """hbar omega [(n + 1/2) sqrt(1 + h^2) + h (n^2 + n + 1/2)], h = hbar eta m omega / 2."""
    h = 0.5 * HBAR * eta * mass * omega
    return HBAR * omega * ((n + 0.5) * math.sqrt(1.0 + h * h) + h * (n * n + n + 0.5))


# ------------------------------------------------- standard-form reduction


def standard_form(mass: float, omega: float, eta: float, gamma: float, energy: float):
    """(k1, k2, k3, A, B, C) of the oscillator's reduced equation at a trial energy."""
    denom = HBAR**2 * mass * omega**2 * (energy + mass)
    a_t = 2.0 / denom - gamma * (gamma + eta)
    b_t = -(2.0 * (energy - mass) * (energy + mass) / denom + gamma)
    k1 = 0.5 - gamma / eta
    a_c = (b_t * eta - a_t) / eta**2
    return k1, 2.0 * k1, 1.0, a_c, -a_c, -a_t / (4.0 * eta**2)


def fm_terms(k1, k2, k3, a_c, b_c, c_c, n):
    """(k4, k5, target) of the standard form; the residual is k4 + k5 - target."""
    k4 = 0.5 * (1.0 - k1 + math.sqrt((1.0 - k1) ** 2 - 4.0 * c_c))
    base = 0.5 + 0.5 * k1 - k2 / (2.0 * k3)
    k5 = base + math.sqrt(base * base - (a_c / k3**2 + b_c / k3 + c_c))
    target = (1.0 - 2.0 * n) / 2.0 - (k2 - math.sqrt((k3 - k2) ** 2 - 4.0 * a_c)) / (2.0 * k3)
    return k4, k5, target


def fm_residual_reference(mass, omega, eta, gamma, energy, n):
    """(residual, allowed deviation) of the standard-form quantization residual at energy.

    The allowed deviation is REL_TOL of the size of its terms plus the change
    of the residual when the energy moves by 1e-14 relative: forming
    E^2 - m^2 from a rest mass of 1e6 loses that much of E before any
    arithmetic of the residual itself, so no evaluation can do better.
    """
    k4, k5, target = fm_terms(*standard_form(mass, omega, eta, gamma, energy), n)
    residual = k4 + k5 - target
    e_shift = energy * (1.0 + 1e-9)
    k4s, k5s, targets = fm_terms(*standard_form(mass, omega, eta, gamma, e_shift), n)
    sensitivity = abs(k4s + k5s - targets - residual) * 1e-5  # per 1e-14 relative
    return residual, REL_TOL * (abs(k4) + abs(k5) + abs(target)) + sensitivity


# ------------------------------------------------------------------ states


def state_params(branch: str, mass, omega, eta, gamma, n):
    """(energy, v, lam) of state n; branch is "nr" or "rel"."""
    alpha = gamma / eta
    if branch == "nr":
        energy = nr_energy(mass, omega, eta, n)
        rad = 0.25 + 1.0 / (mass * omega * eta * HBAR) ** 2
    else:
        energy = rel_energy(mass, omega, eta, n)
        rad = 0.25 + 2.0 / (mass * omega**2 * eta**2 * HBAR**2 * (energy + mass))
    v = 0.25 + 0.5 * alpha + 0.5 * math.sqrt(rad)
    return energy, v, 2.0 * v - alpha


def log_norm(eta: float, n: int, v: float, lam: float) -> float:
    """log N with N^-2 = 4^(-2v) eta^(-1/2) int (1-x^2)^(lam-1/2) C_n^lam(x)^2 dx.

    The raw norm integrand of both branches carries exactly the Gegenbauer
    weight of its own order lam = 2v - gamma/eta, so the integral is the
    closed-form Gegenbauer norm pi 2^(1-2lam) Gamma(n+2lam) / (n! (n+lam) Gamma(lam)^2).
    """
    log_h = (
        math.log(math.pi)
        + (1.0 - 2.0 * lam) * math.log(2.0)
        + math.lgamma(n + 2.0 * lam)
        - math.lgamma(n + 1.0)
        - math.log(n + lam)
        - 2.0 * math.lgamma(lam)
    )
    return -0.5 * (-2.0 * v * math.log(4.0) - 0.5 * math.log(eta) + log_h)


def gegenbauer(n: int, lam: float, x):
    """C_n^lam(x) by the three-term recurrence; x is an ndarray."""
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = 2.0 * lam * x
    for k in range(1, n):
        prev, cur = cur, (2.0 * (k + lam) * x * cur - (k + 2.0 * lam - 1.0) * prev) / (k + 1)
    return cur


def gegenbauer_rule(mu: float, count: int):
    """Nodes and weights/mu0 of the Gauss rule for the weight (1 - x^2)^(mu - 1/2).

    Golub-Welsch: eigenvalues of the symmetric Jacobi matrix of the monic
    Gegenbauer recurrence, beta_k = k (k + 2mu - 1) / (4 (k + mu) (k + mu - 1)).
    Weights are returned divided by the total mass mu0 (see `log_mass`).
    """
    k = np.arange(1, count, dtype=np.float64)
    beta = k * (k + 2.0 * mu - 1.0) / (4.0 * (k + mu) * (k + mu - 1.0))
    nodes, vecs = np.linalg.eigh(np.diag(np.sqrt(beta), 1) + np.diag(np.sqrt(beta), -1))
    return nodes, vecs[0] ** 2


def log_mass(mu: float) -> float:
    """log of int (1 - x^2)^(mu - 1/2) dx = sqrt(pi) Gamma(mu + 1/2) / Gamma(mu + 1)."""
    return 0.5 * math.log(math.pi) + math.lgamma(mu + 0.5) - math.lgamma(mu + 1.0)


class RefState:
    """Reference eigenstate phi_n(rho) = N ((1 - rho^2)/4)^v C_n^lam(rho)."""

    def __init__(self, branch, mass, omega, eta, gamma, n):
        self.branch, self.eta, self.gamma, self.n = branch, eta, gamma, n
        self.energy, self.v, self.lam = state_params(branch, mass, omega, eta, gamma, n)
        self.log_norm = log_norm(eta, n, self.v, self.lam)

    def value(self, rho):
        rho = np.asarray(rho, dtype=np.float64)
        omr2 = 1.0 - rho * rho
        return np.exp(self.log_norm + self.v * np.log(omr2 / 4.0)) * gegenbauer(self.n, self.lam, rho)

    def derivative(self, rho):
        rho = np.asarray(rho, dtype=np.float64)
        omr2 = 1.0 - rho * rho
        poly = gegenbauer(self.n, self.lam, rho)
        dpoly = 2.0 * self.lam * gegenbauer(self.n - 1, self.lam + 1.0, rho) if self.n else 0.0 * rho
        pref = np.exp(self.log_norm + self.v * np.log(omr2 / 4.0))
        return pref * (dpoly - 2.0 * self.v * rho / omr2 * poly)

    def ladder_terms(self, direction: str, rho):
        """The two terms of the ladder operator at rho, already scaled.

        lower: (1 - rho^2) phi' and (2v + n) rho phi, times sqrt((lam + n - 1)/(n + lam));
        raise: -(1 - rho^2) phi' and (2 lam - 2v + n) rho phi, times sqrt((lam + n + 1)/(n + lam)).
        """
        n, v, lam = self.n, self.v, self.lam
        omr2 = 1.0 - rho * rho
        if direction == "lower":
            scale = math.sqrt((lam + n - 1.0) / (n + lam))
            return scale * omr2 * self.derivative(rho), scale * (2.0 * v + n) * rho * self.value(rho)
        scale = math.sqrt((lam + n + 1.0) / (n + lam))
        return -scale * omr2 * self.derivative(rho), scale * (2.0 * lam - 2.0 * v + n) * rho * self.value(rho)


def overlap(a: RefState, b: RefState) -> float:
    """<a|b> under the weighted momentum measure, exact for these integrands.

    In rho the integrand is (1 - rho^2)^(v_a + v_b - alpha - 1/2) C_a C_b, a
    polynomial of degree n_a + n_b against a Gegenbauer weight with
    mu = v_a + v_b - alpha, so ceil((n_a + n_b + 1)/2) Gauss nodes are exact.
    """
    mu = a.v + b.v - a.gamma / a.eta
    nodes, weights = gegenbauer_rule(mu, (a.n + b.n + 2) // 2)
    total = float(np.dot(weights, gegenbauer(a.n, a.lam, nodes) * gegenbauer(b.n, b.lam, nodes)))
    log_scale = (a.log_norm + b.log_norm - (a.v + b.v) * math.log(4.0)
                 - 0.5 * math.log(a.eta) + log_mass(mu))
    return math.exp(log_scale) * total


def ladder_coeffs(n: int, lam: float) -> tuple[float, float]:
    """(l-, l+) = (sqrt(n (2 lam + n - 1)), sqrt((n + 1)(2 lam + n)))."""
    return math.sqrt(n * (2.0 * lam + n - 1.0)), math.sqrt((n + 1.0) * (2.0 * lam + n))


# ------------------------------------------------------------------ checks


def _rel_miss(got: float, want: float, tol: float = REL_TOL) -> bool:
    return not (math.isfinite(got) and abs(got - want) <= tol * abs(want))


def check_spectrum(inp, out) -> list[str]:
    """Check a spectrum-workload result against the references above."""
    problems = []
    m, w, eta, gamma = inp["mass"], inp["omega"], inp["eta"], inp["gamma"]
    for n, level in enumerate(out["rel"]):
        want = rel_energy(m, w, eta, n)
        if level.n != n or _rel_miss(level.energy, want):
            problems.append(f"rel n={n}: {level.energy!r} != {want!r}")
    for n, level in enumerate(out["nr"]):
        want = nr_energy(m, w, eta, n)
        if level.n != n or _rel_miss(level.energy, want):
            problems.append(f"nr n={n}: {level.energy!r} != {want!r}")
    for n, (energy, residual) in enumerate(out["fm"]):
        want, allowed = fm_residual_reference(m, w, eta, gamma, energy, n)
        if not (math.isfinite(residual) and abs(residual - want) <= allowed):
            problems.append(f"fm n={n}: residual {residual!r} != {want!r} (allowed {allowed:.3e})")
    problems += check_ratio_rows(inp, out["ratio"])
    return problems


def check_ratio_rows(inp, rows) -> list[str]:
    """Rows (xi, n, E_n, E_0, ratio) of the level-ratio sweep, row-major in xi."""
    n_list, grid = inp["n_list"], inp["xi_grid"]
    if len(rows) != len(grid) * len(n_list):
        return [f"ratio sweep: {len(rows)} rows, expected {len(grid) * len(n_list)}"]
    problems = []
    for i, (xi, n, e_n, e_0, ratio) in enumerate(rows):
        want_xi, want_n = grid[i // len(n_list)], n_list[i % len(n_list)]
        eta = (xi / HBAR) ** 2
        ref_n = nr_energy(inp["mass"], inp["omega"], eta, want_n)
        ref_0 = nr_energy(inp["mass"], inp["omega"], eta, 0)
        if (n != want_n or xi != want_xi or _rel_miss(e_n, ref_n) or _rel_miss(e_0, ref_0) or _rel_miss(ratio, ref_n / ref_0)):
            problems.append(f"ratio row {i}: {(xi, n, e_n, e_0, ratio)!r}")
    return problems


def check_state_meta(ref: RefState, energy, v, lam, norm) -> list[str]:
    problems = []
    for name, got, want in (("energy", energy, ref.energy), ("v", v, ref.v), ("lam", lam, ref.lam)):
        if _rel_miss(got, want):
            problems.append(f"state n={ref.n}: {name} {got!r} != {want!r}")
    if not (norm > 0.0 and math.isfinite(norm)) or abs(math.log(norm) - ref.log_norm) > REL_TOL:
        problems.append(f"state n={ref.n}: norm {norm!r} != exp({ref.log_norm!r})")
    return problems


def check_values(ref: RefState, rho, got, what: str) -> list[str]:
    """Pointwise state values, relative to the largest reference magnitude."""
    want = ref.value(rho)
    got = np.asarray(got, dtype=np.float64)
    scale = float(np.max(np.abs(want)))
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return [f"{what} n={ref.n}: bad shape or non-finite values"]
    err = float(np.max(np.abs(got - want)))
    return [] if err <= REL_TOL * scale else [f"{what} n={ref.n}: max error {err:.3e} vs scale {scale:.3e}"]


def check_states(inp, out) -> list[str]:
    """Check a states-workload result: parameters, norms, Gram matrix, values, ladder."""
    branch = inp["branch"]
    m, w, eta, gamma = inp["mass"], inp["omega"], inp["eta"], inp["gamma"]
    refs = [RefState(branch, m, w, eta, gamma, n) for n in range(inp["nmax"] + 2)]
    problems = []
    for ref, st in zip(refs, out["states"]):
        problems += check_state_meta(ref, st.energy, st.v, st.lam, st.norm)
    for (i, j), got in out["gram"].items():
        want = (1.0 if i == j else 0.0) if branch == "nr" else overlap(refs[i], refs[j])
        if not (math.isfinite(got) and abs(got - want) <= REL_TOL):
            problems.append(f"gram ({i},{j}): {got!r} != {want!r}")
    for i, got in enumerate(out["diag"]):
        if not (math.isfinite(got) and abs(got - 1.0) <= REL_TOL):
            problems.append(f"inner product ({i},{i}): {got!r} != 1")
    rho_grid = out["rho_grid"]
    for ref, values in zip(refs, out["values"]):
        problems += check_values(ref, rho_grid, values, "eval_state")
    for (n, direction), got in out["ladder"].items():
        problems += check_ladder(refs, n, direction, inp["ladder_rho"], got, rho_grid)
    return problems


def check_ladder(refs, n, direction, rho, got, rho_grid) -> list[str]:
    """Scalar ladder values at the points rho for state n.

    Nonrelativistic branch: the ladder identity, raise = l+ phi_{n+1} and
    lower = l- phi_{n-1}, relative to l+- times the largest |phi_{n+-1}| on
    the grid.  Relativistic branch, where neighbouring states carry different
    exponents and no identity holds: the operator's two terms evaluated here,
    relative to their magnitudes.
    """
    ref = refs[n]
    rho = np.asarray(rho, dtype=np.float64)
    got = np.asarray(got, dtype=np.float64)
    if not np.all(np.isfinite(got)):
        return [f"ladder {direction} n={n}: non-finite"]
    if direction == "lower" and n == 0:
        ok = np.all(got == 0.0)
        return [] if ok else [f"ladder lower n=0: {got!r} != 0"]
    if ref.branch == "nr":
        l_minus, l_plus = ladder_coeffs(n, ref.lam)
        coef, nb = (l_plus, refs[n + 1]) if direction == "raise" else (l_minus, refs[n - 1])
        want = coef * nb.value(rho)
        scale = coef * float(np.max(np.abs(nb.value(rho_grid))))
        err = np.abs(got - want)
    else:
        t1, t2 = ref.ladder_terms(direction, rho)
        err = np.abs(got - (t1 + t2))
        scale = float(np.max(np.abs(t1) + np.abs(t2)))
    worst = float(np.max(err))
    return [] if worst <= LADDER_TOL * scale else [f"ladder {direction} n={n}: error {worst:.3e} (scale {scale:.3e})"]


# --------------------------------------------------------------------- cli

VERIFY_MIN_ROWS = 15  # checks `gupho verify` runs at its defaults; losing one is a failure


def parse_csv(text: str):
    """(meta, header, rows) of the CLI's CSV output; meta values stay strings."""
    meta, table = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                meta[key] = value
        elif line:
            table.append(line.split(","))
    return meta, (table[0] if table else []), table[1:]


def check_cli(inp, returncode: int, stdout: str) -> list[str]:
    """Exit code, row count and values of one CLI command against the references above."""
    command = inp["command"]
    if returncode != 0:
        return [f"{command}: exit code {returncode}"]
    meta, header, rows = parse_csv(stdout)
    try:
        if command in ("spectrum", "spectrum_nr"):
            return _check_cli_spectrum(inp, header, rows)
        if command == "figure1":
            rows = [(float(xi), int(n), float(e_n), float(e_0), float(r)) for xi, n, e_n, e_0, r in rows]
            return check_ratio_rows(inp, rows)
        if command == "state":
            return _check_cli_state(inp, meta, rows)
        if command == "fm":
            return _check_cli_fm(inp, rows)
        return _check_cli_verify(rows)
    except (ValueError, KeyError) as exc:
        return [f"{command}: unparsable output ({exc})"]


def _check_cli_spectrum(inp, header, rows):
    m, w, eta = inp["mass"], inp["omega"], inp["eta"]
    energy_of = nr_energy if inp["command"] == "spectrum_nr" else rel_energy
    if header[:2] != ["n", "energy"] or len(rows) != inp["nmax"] + 1:
        return [f"{inp['command']}: {len(rows)} rows, expected {inp['nmax'] + 1}"]
    problems = []
    for i, row in enumerate(rows):
        want = energy_of(m, w, eta, i)
        if int(row[0]) != i or _rel_miss(float(row[1]), want):
            problems.append(f"{inp['command']} n={i}: {row[1]} != {want!r}")
    return problems


def _check_cli_state(inp, meta, rows):
    eta, samples = inp["eta"], inp["samples"]
    if len(rows) != samples:
        return [f"state: {len(rows)} rows, expected {samples}"]
    ref = RefState(inp["branch"], inp["mass"], inp["omega"], eta, inp["gamma"], inp["n"])
    problems = check_state_meta(ref, float(meta["energy"]), float(meta["v"]),
                                float(meta["lambda"]), float(meta["norm"]))
    p, rho, phi = (np.array([float(row[k]) for row in rows]) for k in range(3))
    want_rho = -0.99 + 1.98 * np.arange(samples) / (samples - 1)
    want_p = want_rho / (math.sqrt(eta) * np.sqrt(1.0 - want_rho**2))
    if np.max(np.abs(rho - want_rho)) > 1e-15 or np.max(np.abs(p - want_p) / np.abs(want_p).max()) > REL_TOL:
        problems.append("state: rho or p grid differs from the documented grid")
    return problems + check_values(ref, want_rho, phi, "state")


def _check_cli_fm(inp, rows):
    if len(rows) != 1:
        return [f"fm: {len(rows)} rows, expected 1"]
    k4, k5, target = fm_terms(*inp["coeffs"], inp["n"])
    scale = abs(k4) + abs(k5) + abs(target)
    got = [float(v) for v in rows[0]]
    want = [k4, k5, k4 + k5 - target]
    if any(not (math.isfinite(g) and abs(g - x) <= REL_TOL * scale) for g, x in zip(got, want)):
        return [f"fm: {got!r} != {want!r}"]
    return []


def _check_cli_verify(rows):
    if len(rows) < VERIFY_MIN_ROWS:
        return [f"verify: {len(rows)} rows, expected at least {VERIFY_MIN_ROWS}"]
    return [
        f"verify: {name} {deviation} > {tolerance} ({status})"
        for name, deviation, tolerance, status in (row[:4] for row in rows)
        if status != "pass" or not float(deviation) <= float(tolerance)
    ]
