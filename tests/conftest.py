from hypothesis import settings

# Property tests draw the same examples on every run, and slow hosts do not
# trip Hypothesis's per-example deadline; --hypothesis-profile overrides.
settings.register_profile("fawkit", derandomize=True, deadline=None)
settings.load_profile("fawkit")
