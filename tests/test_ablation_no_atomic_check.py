"""Negative control: disabling the bitmap's atomic check loses writes.

DESIGN.md item 5.4 — the paper's consistency mechanism (3.3) is not
decorative.  This test swaps in a copier whose block writes skip the
at-ownership revalidation (``UncheckedCopier`` in conftest.py: it writes
exactly what was fetched), drives the same racing workload the property
tests use, and shows a guest write being overwritten by stale image
data — the bug the real design prevents.
"""


def test_atomic_check_prevents_lost_writes(racing_deploy):
    lost, _ = racing_deploy()
    assert lost == []


def test_disabling_atomic_check_loses_writes(racing_deploy):
    lost, _ = racing_deploy(unchecked=True)
    assert lost, ("expected the unchecked copier to overwrite at least "
                  "one racing guest write — if this starts passing, the "
                  "race window moved and the ablation needs a rethink")
