from hypothesis import assume, settings
from hypothesis import strategies as st

from fawkit.scenarios import GameScenario, MultiPoolScenario, SinglePoolScenario

# Property tests draw the same examples on every run, and slow hosts do not
# trip Hypothesis's per-example deadline; --hypothesis-profile overrides.
settings.register_profile("fawkit", derandomize=True, deadline=None)
settings.load_profile("fawkit")


@st.composite
def single_scenarios(draw):
    """Any valid single-pool scenario, edges (tau, c in {0, 1}, beta = 0) included."""
    alpha, beta = draw(st.floats(0.0, 0.49)), draw(st.floats(0.0, 0.49))
    return SinglePoolScenario(alpha, beta, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))


@st.composite
def multi_scenarios(draw, max_pools=6, min_pools=1):
    n = draw(st.integers(min_pools, max_pools))
    alpha = draw(st.floats(0.0, 0.49))
    beta_cap = min(0.49, (1.0 - alpha) / n)
    betas = draw(st.lists(st.floats(0.0, beta_cap), min_size=n, max_size=n))
    taus = draw(st.lists(st.floats(0.0, 1.0 / n), min_size=n, max_size=n))
    c = draw(st.floats(0.0, 1.0))
    return MultiPoolScenario(alpha, tuple(betas), tuple(taus), c)


@st.composite
def game_scenarios(draw):
    a1 = draw(st.floats(0.0, 0.49))
    a2 = draw(st.floats(0.0, 0.49))
    f1 = draw(st.floats(0.0, a1))
    f2 = draw(st.floats(0.0, a2))
    assume(a2 + f1 > 0.0 and a1 + f2 > 0.0)  # validate_game rejects an empty pool
    c1 = draw(st.floats(0.0, 1.0))
    c2 = draw(st.floats(0.0, 1.0))
    c1p = draw(st.floats(0.0, 1.0))
    c2p = draw(st.floats(0.0, 1.0 - c1p))
    return GameScenario(a1, a2, f1, f2, c1, c2, c1p, c2p)
