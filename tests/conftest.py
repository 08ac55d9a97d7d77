from hypothesis import settings

# CI runs the property tests harder: `pytest --hypothesis-profile=ci`
settings.register_profile("ci", max_examples=300, print_blob=True)
