import math

import pytest
from hypothesis import given, settings, strategies as st

from schrodingerizer.resources import CostQuery, METHODS, estimate, schr_vs_unitary_ratio


def test_heat_worked_example():
    result = estimate(CostQuery(method="schr_heat", d=1, m=4, m_p=9, t_final=1.0, dt=0.01))
    expected = 100 * (1 * 4 * math.log2(4) + 9 * math.log2(9))
    assert result.count == pytest.approx(expected, rel=1e-12)
    assert result.count == pytest.approx(3653, abs=0.5)
    assert "log2" in result.formula


def test_convection_worked_example():
    result = estimate(CostQuery(method="schr_convection", d=2, m=5))
    assert result.count == pytest.approx(3 * 5 * math.log2(5), rel=1e-12)
    assert result.count == pytest.approx(34.8, abs=0.1)


def test_ratio_shape():
    value, formula = schr_vs_unitary_ratio(dx=0.01, ell=2.0, d=1, epsilon=1e-6)
    assert formula == "dx * (1 + (ell/d) * log2(1/eps)/log2(d/eps))"
    assert value == pytest.approx(0.01 * (1 + 2 * math.log2(1e6) / math.log2(1e6)), rel=1e-12)
    with pytest.raises(ValueError):
        schr_vs_unitary_ratio(0.01, 2.0, 1, 2.0)


def test_special_case_matches_heat_term_for_term():
    q = dict(d=3, m=5, m_p=7, t_final=2.0, dt=0.05)
    heat = estimate(CostQuery(method="schr_heat", **q))
    special = estimate(CostQuery(method="schr_special", **q))
    assert heat.count == special.count
    assert heat.formula == special.formula


def test_general_includes_polylog_and_metadata():
    q = CostQuery(
        method="schr_general", d=2, m=4, m_p=6, t_final=1.0,
        sparsity=3, max_norm=2.0, dp=0.01, epsilon=1e-4,
    )
    result = estimate(q)
    tau = 3 * 2.0 / 0.01 * 1.0
    assert result.extras["tau"] == pytest.approx(tau)
    inner = math.log2(tau / 1e-4)
    assert result.polylog_factor == pytest.approx(inner**3.5 / math.log2(inner), rel=1e-12)
    assert result.total == pytest.approx(result.count * result.polylog_factor)
    assert result.extras["order_of_a"] == 2.0 ** (2 * 4)


def test_unitarisation_defaults_to_dense_arccos():
    q = CostQuery(
        method="unitarisation", d=1, m=5, t_final=1.0, dt=0.1,
        sparsity=3, max_norm=1.5,
    )
    result = estimate(q)
    assert result.extras["s_arccos"] == 2.0**5
    expected = 5 * (10 * 2.0**5 + 3 * 1.5)
    assert result.count == pytest.approx(expected)


def test_hamiltonian_query_counts():
    q = CostQuery(
        method="hamiltonian_query", d=1, m=4, m_p=5, t_final=2.0,
        sparsity=4, max_norm=3.0, epsilon=1e-3,
    )
    result = estimate(q)
    tau = 4 * 3.0 * 2.0
    inner = math.log2(tau / 1e-3)
    assert result.extras["queries"] == pytest.approx(tau * inner / math.log2(inner))
    assert result.count == pytest.approx(tau * (9 + inner**2.5) * inner / math.log2(inner))


def test_boltzmann_formula():
    q = CostQuery(
        method="boltzmann", d=1, m=4, m_p=6, t_final=1.0, dt=0.1,
        n_ord=2, dp=0.05, dx=0.125,
    )
    result = estimate(q)
    m_h = 4 + 6
    expected = m_h * 4 / 0.05 + m_h / 0.125 + 10 * 4 * 2 + 6 * math.log2(6)
    assert result.count == pytest.approx(expected)


def test_black_scholes_formulas():
    schr = estimate(CostQuery(method="black_scholes_schr", m=6, m_p=8))
    unit = estimate(CostQuery(method="black_scholes_unitary", m=6, m_p=8))
    assert schr.count == pytest.approx(6 * math.log2(6) + 8 * math.log2(8))
    assert unit.count == pytest.approx(6 * math.log2(6))
    assert schr.count > unit.count


def test_missing_field_is_named():
    with pytest.raises(ValueError, match="dt"):
        estimate(CostQuery(method="schr_heat", d=1, m=4, m_p=9, t_final=1.0))
    with pytest.raises(ValueError, match="sparsity"):
        estimate(CostQuery(method="schr_general", d=1, m=4, m_p=9, t_final=1.0, dp=0.1, max_norm=1.0))


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        CostQuery(method="warp_drive")


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(METHODS),
    st.integers(1, 4),
    st.integers(2, 12),
    st.integers(2, 12),
    st.floats(0.5, 8.0),
    st.integers(1, 10),
    st.floats(0.5, 10.0),
)
def test_counts_monotone_in_each_field(method, d, m, m_p, t_final, s, norm):
    base = dict(
        method=method, d=d, m=m, m_p=m_p, t_final=t_final, dt=0.01,
        dx=0.1, dp=0.05, sparsity=s, max_norm=norm, n_ord=2, epsilon=1e-8,
    )
    value = estimate(CostQuery(**base)).count
    for bump in (
        {"d": d + 1},
        {"m": m + 1},
        {"m_p": m_p + 1},
        {"t_final": t_final * 2},
        {"sparsity": s + 1},
        {"max_norm": norm * 2},
    ):
        bumped = estimate(CostQuery(**{**base, **bump})).count
        assert bumped >= value - 1e-9
