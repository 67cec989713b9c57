"""Suite-wide hypothesis settings.

Examples are derived from each test's name (derandomize) and no example
has a deadline, so a run's outcome does not depend on the seed or on how
fast the host happens to be; max_examples keeps the suite's time bounded.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "toricnash",
    derandomize=True,
    deadline=None,
    max_examples=40,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("toricnash")
