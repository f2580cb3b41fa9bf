"""The benchmark tracer wraps library functions by name; a rename that drops
one would silently zero its per-layer metrics."""

from pathlib import Path

from detksat import local_search

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_sites_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    original = local_search.structured_space_for
    tracer = Tracer()
    try:
        tracer.install()
        assert local_search.structured_space_for is not original
    finally:
        tracer.uninstall()
    assert local_search.structured_space_for is original
    # the 3-SAT branching restricts no formula (it works on clause bitsets),
    # up_restrict and procedure P's second copy are deleted, ball_searcher
    # is the one ball search and lambda_for_zeta solves every chain group's
    # lambda: these spans read 0
    assert tracer.missing == [
        "detksat.branching3.restrict",
        "detksat.branching3.up_restrict",
        "detksat.branching3.unit_propagate_tracked",
        "detksat.local_search.searchball",
        "detksat.local_search.characteristic_for_chain",
    ]
