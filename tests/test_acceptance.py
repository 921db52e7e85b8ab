"""Acceptance gate: every shipped claim at its pinned tolerance.

Each criterion prints one ``ACCEPTANCE <id> <name>: PASS/FAIL`` line (visible
with ``pytest -s`` or in the captured output) and is also a separate pytest
case.  Expected values are either trivially forced, derived from the
independent oracles coded here, or cross-checked closed forms.
"""

import cmath
import math
import time
from contextlib import contextmanager

import numpy as np
from scipy.optimize import curve_fit

from epchain import (
    Bipartition,
    ChainSpec,
    Region,
    bkc_nu_minus,
    build_bdg_matrix,
    chain_nu_minus,
    detect_eps,
    eigenspectrum,
    enhancement_ratio,
    locate_ep_1d,
    nu_closed_form_three_mode_nonuniform,
    nu_closed_form_two_mode,
    spectrum_report,
    xi_series_coefficients,
)
from epchain.selftest import run_selftest
from epchain.sweeps import SweepAxis, es_scan_table

from conftest import assert_multiset_close


@contextmanager
def criterion(cid, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid} {name}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {cid} {name}: PASS ({elapsed:.2f}s)", flush=True)


def test_c01_two_mode_spectrum_formula():
    with criterion("C01", "two-mode spectrum formula"):
        for g in (0.3, 0.5, 0.9, 1.1, 1.5, 2.0):
            values = eigenspectrum(build_bdg_matrix(ChainSpec.uniform(2, g=g, j=1.0)))
            root = cmath.sqrt(g * g - 1.0)
            assert_multiset_close(
                values, [root, root, -root, -root], 1e-9 * max(g, 1.0), label=f"g={g}"
            )


def test_c02_ep_splitting_by_sms():
    with criterion("C02", "splitting of the coalescence by on-site squeezing"):
        found = locate_ep_1d(
            lambda g: ChainSpec.uniform(2, g=g, j=1.0, eta=0.2), 0.5, 1.5, tol=1e-8
        )
        assert len(found) == 2
        assert abs(found[0] - 0.8) <= 1e-6
        assert abs(found[1] - 1.2) <= 1e-6


def test_c03_region_classification():
    with criterion("C03", "three spectral regions"):
        expected = {
            0.79: Region.PURELY_IMAGINARY,
            1.19: Region.MIXED,
            1.59: Region.PURELY_REAL,
        }
        for g, want in expected.items():
            report = spectrum_report(build_bdg_matrix(ChainSpec.uniform(2, g=g, j=1.0, eta=0.2)))
            assert report.region is want, f"g={g}"


def test_c04_closed_form_oracle_two_mode():
    with criterion("C04", "two-mode closed form vs numeric pipeline"):
        times = np.linspace(0.0, 5.0, 50)
        for g in (0.5, 0.99, 1.0, 1.01, 1.5):
            spec = ChainSpec.uniform(2, g=g, j=1.0)
            for t in times:
                numeric = chain_nu_minus(spec, float(t))
                closed = nu_closed_form_two_mode(g, 1.0, float(t))
                assert abs(numeric - closed) <= 1e-8, (g, t)


def test_c05_pure_squeezer_limit():
    with criterion("C05", "g = 0 limit reproduces e^(-2 J t)"):
        spec = ChainSpec.uniform(2, g=0.0, j=1.0)
        for t in np.linspace(0.0, 5.0, 50):
            assert abs(chain_nu_minus(spec, float(t)) - math.exp(-2.0 * t)) <= 1e-9


def test_c06_jordan_block_structures():
    with criterion("C06", "coalescence orders and multiplicities"):
        cases = {
            (2, 0.0): (2, 2),
            (4, 0.0): (2, 2, 2, 2),
            (4, math.pi / 2): (4, 4),
            (3, math.pi / 2): (3, 3),
        }
        for (n, phi), want in cases.items():
            m = build_bdg_matrix(ChainSpec.uniform(n, g=1.0, j=1.0, phi=phi))
            clusters = detect_eps(m, rank_tol=1e-8)
            assert len(clusters) == 1, (n, phi)
            assert clusters[0].jordan_blocks == want, (n, phi)


def test_c07_series_coefficients():
    with criterion("C07", "series coefficients: exact values c_j = 2 4^j / (j!)^2"):
        coeffs = xi_series_coefficients(6)
        assert abs(coeffs[0] - 8.0) <= 1e-6
        assert len(coeffs) == 5
        assert coeffs == (8.0, 8.0, 32.0 / 9.0, 8.0 / 9.0, 32.0 / 225.0)


def test_c08_phase_monotonicity_and_size_ordering():
    with criterion("C08", "phase monotonicity and size ordering at J t = 3.5"):
        t = 3.5
        phis = np.linspace(0.0, math.pi / 2, 17)
        for n in (3, 4, 5, 6):
            neg = [-math.log(bkc_nu_minus(n, float(phi), t)) for phi in phis]
            assert all(b >= a - 1e-9 for a, b in zip(neg, neg[1:])), f"N={n}"
        at_half_pi = [-math.log(bkc_nu_minus(n, math.pi / 2, t)) for n in range(2, 7)]
        assert all(b > a for a, b in zip(at_half_pi, at_half_pi[1:]))


def test_c09_enhancement_ratio_scaling():
    with criterion("C09", "enhancement-ratio saturation fit over N = 2..30"):
        t = 3.5
        sizes = np.arange(2, 31)
        ratios = np.array([enhancement_ratio(int(n), t) for n in sizes])
        popt, _ = curve_fit(
            lambda n, a, b, c: a * np.exp(b * n) + c,
            sizes, ratios, p0=(-4.0, -0.5, 2.5), maxfev=20000,
        )
        a, b, c = popt
        assert abs(c - 2.493) <= 0.1, f"asymptote {c}"
        assert abs(b - (-0.4633)) <= 0.1, f"rate {b}"


def test_c10_three_mode_nonuniform():
    with criterion("C10", "three-mode coalescence surface and closed form"):
        # detected coalescences occur exactly where the surface condition holds
        surface_points = [
            (math.sqrt(2.0) * math.cos(th), math.sqrt(2.0) * math.sin(th))
            for th in (0.0, math.pi / 8, math.pi / 4)
        ]
        off_points = [(0.7, 0.7), (1.3, 1.1), (0.4, 1.2)]
        for g1, g2 in surface_points + off_points:
            axes = [SweepAxis(name, v, v, 1) for name, v in (("g1", g1), ("g2", g2), ("J1", 1.0), ("J2", 1.0))]
            header, columns, _ = es_scan_table(*axes, tol=1e-6, detect_everywhere=True)
            point = {name: column[0] for name, column in zip(header, columns)}
            detected = point["ep_order"] >= 2
            assert detected == (point["residual"] <= 1e-6), (g1, g2)
            if detected:
                assert point["residual"] <= 1e-6

        # permanent double zero across random draws
        rng = np.random.default_rng(42)
        for _ in range(100):
            g1, g2, j1, j2 = rng.uniform(0.1, 2.0, 4)
            spec = ChainSpec(3, hopping=(complex(g1), complex(g2)), pairing=(j1, j2), sms=0)
            values = np.sort(np.abs(eigenspectrum(build_bdg_matrix(spec))))
            assert values[1] <= 1e-9 * max(1.0, values[-1])

        # closed form along the surface matches the pipeline
        part = Bipartition.from_label("13|2", 3)
        for varphi in (0.0, math.pi / 8, math.pi / 4):
            theta = math.pi / 4 - varphi
            spec = ChainSpec(
                3,
                hopping=(
                    complex(math.sqrt(2.0) * math.cos(theta)),
                    complex(math.sqrt(2.0) * math.sin(theta)),
                ),
                pairing=1.0,
                sms=0,
            )
            for t in np.linspace(0.0, 5.0, 26):
                numeric = chain_nu_minus(spec, float(t), part)
                closed = nu_closed_form_three_mode_nonuniform(varphi, 1.0, float(t))
                assert abs(numeric - closed) <= 1e-6, (varphi, t)


def test_c11_odd_chain_never_purely_real():
    with criterion("C11", "odd chain never purely real"):
        for g in np.linspace(0.0, 3.0, 301):
            report = spectrum_report(build_bdg_matrix(ChainSpec.uniform(3, g=float(g), j=1.0, eta=0.2)))
            assert report.region is not Region.PURELY_REAL, f"g={g}"


def test_c12_property_suite():
    with criterion("C12", "randomized property suite (200 draws)"):
        results = run_selftest(draws=200)
        failures = [r for r in results if not r.passed]
        assert not failures, "; ".join(f"{r.name}: {r.detail}" for r in failures)
