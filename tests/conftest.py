"""Hypothesis profiles.  The default budget is tier-1's; ``schedule-deep``
gives the run scheduler's oracle test a larger one:

    PYTHONPATH=src python -m pytest --hypothesis-profile schedule-deep \
        tests/test_horn.py::test_run_schedule_is_the_oracle_stage_by_stage
"""

from hypothesis import settings

settings.register_profile("schedule-deep", max_examples=4000)
