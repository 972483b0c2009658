"""The unified component registry and the shared spec DSL."""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.factory import ALGORITHMS, make_algorithm
from repro.metrics import METRICS, register_metric
from repro.patterns.registry import PATTERNS, register_pattern, resolve_pattern
from repro.registry import Registry, canonical_spec, format_spec, parse_spec
from repro.topology import XGFT
from repro.topology.registry import TOPOLOGIES, resolve_topology


# ----------------------------------------------------------------------
# The spec DSL
# ----------------------------------------------------------------------
class TestParseSpec:
    def test_bare_name(self):
        assert parse_spec("r-nca-d") == ("r-nca-d", {})

    def test_parameters(self):
        name, kwargs = parse_spec("r-nca-d(map_kind=mod, k=8, fast=true)")
        assert name == "r-nca-d"
        assert kwargs == {"map_kind": "mod", "k": 8, "fast": True}

    def test_float_values(self):
        assert parse_spec("m(rate=0.05)") == ("m", {"rate": 0.05})

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_spec("   ")

    @pytest.mark.parametrize(
        "bad",
        ["name(key", "name(key=1", "(k=1)", "name(k)", "name(=1)", "name(, =2)"],
    )
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)


class TestFormatSpec:
    def test_bare(self):
        assert format_spec("s-mod-k") == "s-mod-k"
        assert format_spec("s-mod-k", {}) == "s-mod-k"

    def test_sorted_params(self):
        assert format_spec("a", {"z": 1, "b": 2}) == "a(b=2,z=1)"

    def test_bool_and_float(self):
        assert format_spec("a", {"x": True, "y": 0.5}) == "a(x=true,y=0.5)"

    def test_rejects_unsafe_strings(self):
        with pytest.raises(ValueError):
            format_spec("a", {"k": "has space"})
        with pytest.raises(ValueError):
            format_spec("a", {"k": "1"})  # would re-parse as int
        with pytest.raises(ValueError):
            format_spec("a(b)")

    def test_canonical_spec(self):
        assert canonical_spec(" r-nca-d( k=8 ,map_kind=mod )") == "r-nca-d(k=8,map_kind=mod)"


_names = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz-_0123456789"), min_size=1, max_size=12
).filter(lambda s: not s.isdigit() and s.lower() not in ("true", "false"))
_keys = st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz_"), min_size=1, max_size=8)
def _floatlike(s: str) -> bool:
    # "inf" / "infinity" / "nan" re-parse as floats, so format_spec
    # rejects them as string values (by design) — keep them out of the
    # string-value strategy
    try:
        float(s)
        return True
    except ValueError:
        return False


_str_values = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz-_"), min_size=1, max_size=8
).filter(lambda s: s.lower() not in ("true", "false") and not _floatlike(s))
_values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    _str_values,
)


class TestSpecRoundTrip:
    @given(name=_names, kwargs=st.dictionaries(_keys, _values, max_size=4))
    def test_format_then_parse_is_identity(self, name, kwargs):
        spec = format_spec(name, kwargs)
        parsed_name, parsed_kwargs = parse_spec(spec)
        assert parsed_name == name
        assert parsed_kwargs == kwargs

    @given(name=_names, kwargs=st.dictionaries(_keys, _values, max_size=4))
    def test_canonicalization_is_idempotent(self, name, kwargs):
        spec = format_spec(name, kwargs)
        assert canonical_spec(spec) == spec

    def test_spec_to_component_to_canonical_spec(self):
        """Legacy alias, DSL form and canonical form build identical components."""
        legacy = resolve_pattern("shift-3", 16)
        dsl = resolve_pattern("shift(d=3)", 16)
        canonical = resolve_pattern(canonical_spec("shift( d = 3 )"), 16)
        assert legacy.pairs() == dsl.pairs() == canonical.pairs()


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_collision_rejected(self):
        reg = Registry("widget")
        reg.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", 2)
        assert reg.get("a") == 1

    def test_override_replaces(self):
        reg = Registry("widget")
        reg.register("a", 1)
        reg.register("a", 2, override=True)
        assert reg.get("a") == 2

    def test_unknown_name_lists_options(self):
        reg = Registry("widget")
        reg.register("alpha", 1)
        reg.register("beta", 2)
        with pytest.raises(ValueError, match="unknown widget 'gamma'.*alpha, beta"):
            reg.get("gamma")

    def test_unknown_name_suggests_close_matches(self):
        reg = Registry("widget")
        reg.register("alpha", 1)
        reg.register("beta", 2)
        with pytest.raises(ValueError, match="did you mean 'alpha'"):
            reg.get("alpah")
        with pytest.raises(ValueError, match="did you mean 'beta'"):
            reg.get("betta")

    def test_distant_typos_get_no_suggestion(self):
        reg = Registry("widget")
        reg.register("alpha", 1)
        try:
            reg.get("zzzzzz")
        except ValueError as err:
            assert "did you mean" not in str(err)

    def test_suggestions_across_live_registries(self):
        from repro.core.factory import ALGORITHMS
        from repro.metrics import METRICS
        from repro.patterns.registry import PATTERNS
        from repro.topology.registry import TOPOLOGIES
        from repro.workloads import WORKLOADS

        cases = [
            (ALGORITHMS, "d-mod-j", "d-mod-k"),
            (TOPOLOGIES, "leafspin", "leafspine"),
            (PATTERNS, "trnspose", "transpose"),
            (WORKLOADS, "posson", "poisson"),
            (METRICS, "max_link_laod", "max_link_load"),
        ]
        for registry, typo, expected in cases:
            with pytest.raises(ValueError, match=f"did you mean.*{expected}"):
                registry.get(typo)

    def test_unregister(self):
        reg = Registry("widget")
        reg.register("a", 1)
        reg.unregister("a")
        assert "a" not in reg
        with pytest.raises(ValueError, match="not registered"):
            reg.unregister("a")

    def test_decorator_form(self):
        reg = Registry("widget")

        @reg.register("fn")
        def fn():
            return 42

        assert reg.get("fn")() == 42

    def test_container_protocol(self):
        reg = Registry("widget")
        reg.register("b", 1)
        reg.register("a", 2)
        assert len(reg) == 2
        assert list(reg) == ["a", "b"]
        assert reg.names() == ("a", "b")

    def test_build_parses_and_calls(self):
        reg = Registry("widget")
        reg.register("box", lambda size=1, fill="x": (size, fill))
        assert reg.build("box(size=3)") == (3, "x")
        assert reg.build("box") == (1, "x")
        with pytest.raises(ValueError, match="collide"):
            reg.build("box(size=3)", size=4)


# ----------------------------------------------------------------------
# The four concrete registries
# ----------------------------------------------------------------------
class TestConcreteRegistries:
    def test_algorithms_registered(self):
        for name in ("s-mod-k", "d-mod-k", "random", "r-nca-u", "r-nca-d", "colored"):
            assert name in ALGORITHMS

    def test_algorithm_spec_string_construction(self):
        topo = XGFT((4, 4), (1, 2))
        alg = make_algorithm("r-nca-d(map_kind=mod)", topo, seed=1)
        assert alg.map_kind == "mod"

    def test_rnca_best_of_r_parameter(self):
        topo = XGFT((4, 4), (1, 2))
        plain = make_algorithm("r-nca-u", topo, seed=3)
        best2 = make_algorithm("r-nca-u(r=2)", topo, seed=3)
        assert plain.name == "r-nca-u"
        assert best2.name == "r-nca-best"
        assert best2.k == 2 and best2.direction == "up"
        # r=1 stays the plain single-draw scheme
        assert make_algorithm("r-nca-u(r=1)", topo, seed=3).name == "r-nca-u"

    def test_patterns_registered(self):
        for name in ("shift", "bit-reversal", "transpose", "all-pairs", "wrf", "cg"):
            assert name in PATTERNS

    def test_bare_tornado_needs_groups(self):
        with pytest.raises(ValueError, match="tornado.*groups"):
            resolve_pattern("tornado", 16)

    def test_pattern_dsl_equals_legacy(self):
        for legacy, dsl in [
            ("shift-2", "shift(d=2)"),
            ("tornado-4", "tornado(groups=4)"),
            ("neighbor-1", "neighbor(d=1)"),
            ("cg-transpose-128", "cg-transpose(ranks=128)"),
        ]:
            a = resolve_pattern(legacy, 256)
            b = resolve_pattern(dsl, 256)
            assert a.pairs() == b.pairs(), (legacy, dsl)

    def test_topologies_resolve_all_spellings(self):
        raw = resolve_topology("XGFT(2;4,4;1,2)")
        compact = resolve_topology("xgft:2;4,4;1,2")
        family = resolve_topology("slimmed-two-level(m1=4,m2=4,w2=2)")
        live = resolve_topology(raw)
        assert raw == compact == family
        assert live is raw
        assert "kary-ntree" in TOPOLOGIES
        assert resolve_topology("kary-ntree(k=4,n=2)") == XGFT((4, 4), (1, 4))

    def test_topology_unknown_family(self):
        with pytest.raises(ValueError, match="unknown topology family"):
            resolve_topology("not-a-tree")  # repro: noqa[REP010] deliberately unknown: error-path test

    def test_metrics_registered_with_applicability(self):
        assert METRICS.get("slowdown").fault_only is False
        assert METRICS.get("disconnected_fraction").fault_only is True
        assert METRICS.get("max_load_inflation").fault_only is True


# ----------------------------------------------------------------------
# Third-party registration, exercised through a sweep
# ----------------------------------------------------------------------
class TestThirdPartyRegistration:
    def test_all_four_registries_through_a_sweep(self):
        """Registers a toy topology family, pattern, algorithm and metric
        and runs all four through one sweep grid cell."""
        from repro.core.base import RoutingAlgorithm
        from repro.core.factory import register_algorithm
        from repro.experiments import SweepSpec, run_sweep
        from repro.patterns.base import Pattern
        from repro.topology.registry import register_topology

        @register_topology("toy-slim")
        def build_topo(k=4, w=2):
            return XGFT((k, k), (1, w))

        @register_pattern("toy-ring")
        def build_ring(num_leaves, hops=1):
            return Pattern.single_phase(
                [(i, (i + hops) % num_leaves) for i in range(num_leaves)],
                name=f"toy-ring-{hops}",
                num_ranks=num_leaves,
            )

        class Leftmost(RoutingAlgorithm):
            name = "toy-leftmost"

            def up_ports(self, src, dst):
                return tuple(0 for _ in range(self.topo.nca_level(src, dst)))

        register_algorithm("toy-leftmost", lambda t, seed=0, **kw: Leftmost(t))

        @register_metric("toy_used_links", description="number of used links")
        def used_links(ctx):
            return sum(n for load, n in ctx.load_histogram.items() if load > 0)

        try:
            spec = SweepSpec(
                topologies=("toy-slim(k=4,w=2)",),
                patterns=("toy-ring(hops=2)",),
                algorithms=("d-mod-k", "toy-leftmost"),
                metrics=("max_link_load", "toy_used_links"),
            )
            result = run_sweep(spec)
            assert len(result.runs) == 2
            for record in result.runs:
                assert record["topology"] == "toy-slim(k=4,w=2)"
                assert record["pattern"] == "toy-ring(hops=2)"
                assert record["metrics"]["toy_used_links"] > 0
                assert record["metrics"]["max_link_load"] >= 1
            by_alg = {r["algorithm"]: r for r in result.runs}
            # funnelling everything through port 0 can never beat d-mod-k
            assert (
                by_alg["toy-leftmost"]["metrics"]["max_link_load"]
                >= by_alg["d-mod-k"]["metrics"]["max_link_load"]
            )
        finally:
            TOPOLOGIES.unregister("toy-slim")
            PATTERNS.unregister("toy-ring")
            ALGORITHMS.unregister("toy-leftmost")
            METRICS.unregister("toy_used_links")

    def test_unregistered_metric_rejected_at_spec_time(self):
        from repro.experiments import SweepSpec

        with pytest.raises(ValueError, match="unknown metrics"):
            SweepSpec(
                topologies=("XGFT(2;4,4;1,2)",),
                patterns=("shift-1",),
                algorithms=("d-mod-k",),
                metrics=("latency",),  # repro: noqa[REP010] deliberately unknown: error-path test
            )


# ----------------------------------------------------------------------
# The registry entry points that replaced the removed pre-registry ones
# ----------------------------------------------------------------------
class TestDeprecatedShims:
    def test_registry_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            parse_spec("r-nca-d(k=8)")
            resolve_pattern("shift-1", 16)
