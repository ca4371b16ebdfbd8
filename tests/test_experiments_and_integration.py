"""Experiment-harness tests plus end-to-end integration through simulated hardware."""

import json

import pytest

from repro.errors import ReproError
from repro.experiments.leader_sets import detect_leader_sets, leader_set_formula_check
from repro.experiments.overhead import mbl_query_latency, simulated_vs_cachequery_overhead
from repro.experiments.reporting import MODES, format_seconds, format_table, rows_as_dicts
from repro.experiments.table2 import format_table2, run_table2, table2_configurations
from repro.experiments.table3 import format_table3, table3_rows
from repro.experiments.table4 import (
    PAPER_TABLE4_POLICY,
    Table4Configuration,
    format_table4,
    run_table4,
    run_table4_configuration,
    table4_configurations,
)
from repro.experiments.table5 import format_table5, run_table5, table5_policies
from repro.hardware.profiles import SKYLAKE_I5_6500
from repro.store import open_store


class TestReporting:
    def test_format_seconds(self):
        assert format_seconds(3723.5) == "1 h 2 m 3.50 s"

    def test_format_table_alignment(self):
        text = format_table(("a", "b"), [(1, "long-cell"), (22, "x")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_rows_as_dicts(self):
        assert rows_as_dicts(("a",), [(1,)]) == [{"a": 1}]

    @pytest.mark.parametrize(
        "select",
        [table2_configurations, table4_configurations, table5_policies],
        ids=lambda select: select.__name__,
    )
    def test_every_table_accepts_the_modes_and_rejects_others_by_name(self, select):
        for mode in MODES + ("FAST",):
            assert select(mode)
        with pytest.raises(ReproError, match="'bogus'"):
            select("bogus")


class TestTable2:
    def test_configuration_modes(self):
        fast = table2_configurations("fast")
        standard = table2_configurations("standard")
        full = table2_configurations("full")
        assert set(fast) <= set(standard)
        assert ("PLRU", 16) in full and ("PLRU", 16) not in standard
        assert all(assoc <= 4 for _, assoc in fast)

    def test_run_small_configuration_matches_paper_counts(self):
        rows = run_table2(configurations=[("FIFO", 4), ("LRU", 2), ("PLRU", 4)])
        by_key = {(row.policy, row.associativity): row for row in rows}
        assert by_key[("LRU", 2)].learned_states == 2
        assert by_key[("PLRU", 4)].learned_states == 8
        assert all(row.matches_paper in (True, None) for row in rows)
        assert all(row.identified == row.policy for row in rows)
        assert "Policy" in format_table2(rows)

    def test_persistent_store_warm_starts_a_repeated_sweep(self, tmp_path):
        """--cache-path semantics: the second run executes zero queries."""
        path = str(tmp_path / "sweep.json")
        configurations = [("LRU", 2), ("PLRU", 4)]
        cold = run_table2(configurations=configurations, store=open_store(path))
        assert all(row.membership_queries > 0 for row in cold)
        warm = run_table2(configurations=configurations, store=open_store(path))
        assert all(row.membership_queries == 0 for row in warm)
        assert all(row.cache_probes == 0 for row in warm)
        assert [row.learned_states for row in warm] == [
            row.learned_states for row in cold
        ]

    def test_scalar_kernel_produces_the_same_rows(self):
        """The per-symbol replay and the tabulated kernel fill identical
        rows: the probe and access columns are execution-independent."""
        (tabulated,) = run_table2(configurations=[("PLRU", 4)])
        (scalar,) = run_table2(configurations=[("PLRU", 4)], kernel="scalar")
        columns = ("learned_states", "identified", "membership_queries")
        columns += ("cache_probes", "block_accesses")
        for column in columns:
            assert getattr(scalar, column) == getattr(tabulated, column)


class TestTable3:
    def test_rows_cover_all_nine_levels(self):
        assert len(table3_rows()) == 9
        assert "Skylake" in format_table3()


class TestTable4:
    def test_configuration_modes(self):
        fast = table4_configurations("fast")
        assert len(fast) == 9
        standard = table4_configurations("standard")
        haswell_l3 = [c for c in standard if c.cpu == "i7-4790" and c.level == "L3"]
        assert haswell_l3 and not haswell_l3[0].learnable

    def test_unlearnable_configuration_reports_skip(self):
        configuration = Table4Configuration(
            cpu="i7-4790", level="L3", set_index=512, learnable=False, skip_reason="no CAT"
        )
        row = run_table4_configuration(configuration)
        assert row.learned_states is None
        assert "no CAT" in row.note

    def test_skylake_l2_reduced_profile_learns_new1(self):
        """End-to-end: CacheQuery on the simulated Skylake re-discovers New1."""
        configuration = Table4Configuration(
            cpu="i5-6500", level="L2", set_index=5, reduce_associativity=2
        )
        row = run_table4_configuration(configuration)
        assert row.identified_policy == "NEW1"
        assert row.paper_policy == "NEW1"
        assert row.effective_associativity == 2
        assert "Policy" in format_table4([row])

    def test_skylake_l3_leader_set_learns_new2_under_cat(self):
        configuration = Table4Configuration(
            cpu="i5-6500", level="L3", set_index=0, cat_ways=2
        )
        row = run_table4_configuration(configuration)
        assert row.identified_policy == "NEW2"
        assert row.matches_paper_policy is True

    def test_kaby_lake_l1_learns_plru(self):
        configuration = Table4Configuration(
            cpu="i7-8550U", level="L1", set_index=0, reduce_associativity=2
        )
        row = run_table4_configuration(configuration)
        assert row.identified_policy == "PLRU"

    @pytest.mark.parametrize(
        "configuration",
        [c for c in table4_configurations("fast") if c.learnable],
        ids=lambda c: f"{c.cpu}-{c.level}",
    )
    def test_majority_voted_replay_learns_under_timing_noise(self, configuration):
        """Timing noise flips single measurements; each probe runs three
        times and is majority-voted, so the paper's policy is still learned."""
        row = run_table4_configuration(configuration, repetitions=3, noise_std=1.0)
        assert row.identified_policy == PAPER_TABLE4_POLICY[
            (configuration.cpu, configuration.level)
        ]

    def test_one_store_backs_frontend_and_learning_trie(self, tmp_path):
        """The acceptance shape: one PrefixStore holds both caching stacks."""
        from repro.store import PrefixStore

        store = PrefixStore(str(tmp_path / "t4.json"))
        configuration = Table4Configuration(
            cpu="i5-6500", level="L2", set_index=5, reduce_associativity=2
        )
        row = run_table4_configuration(configuration, store=store)
        assert row.identified_policy == "NEW1"
        kinds = {key[0] for key in store.namespaces()}
        assert kinds == {"mbl", "learning"}
        assert store.path.exists()  # saved after the run
        # A second run over the same store is served from it entirely.
        warm = run_table4_configuration(configuration, store=PrefixStore(str(store.path)))
        assert warm.membership_queries == 0
        assert warm.identified_policy == "NEW1"

    def test_table4_after_table2_on_one_fresh_store_appends_each_record_once(
        self, tmp_path
    ):
        """The CLI's ``all --cache-path F`` flow: the first CacheQuery target
        joins a fresh store Table 2 has just saved without re-reading F, so
        Table 4's saves append its own records and none of Table 2's."""
        path = tmp_path / "c.store"
        store = open_store(path)
        run_table2(configurations=[("LRU", 2)], store=store)
        header = path.read_bytes().splitlines()[0]
        table2_end = path.stat().st_size
        configuration = next(c for c in table4_configurations("fast") if c.learnable)
        (row,) = run_table4(configurations=[configuration], store=store)
        assert row.learned_states is not None
        data = path.read_bytes()
        assert data.splitlines()[0] == header  # appended to, not compacted
        records = [
            record
            for line in data[table2_end:].splitlines()
            for record in json.loads(line)["delta"]
        ]
        assert records  # Table 4's own measurements were saved
        assert [r for r in records if r[0][:2] == ["learning", "simulated"]] == []

    def test_response_cache_alone_relearns_the_target(self, monkeypatch):
        """With the learning trie dropped, the engine asks Polca every word
        again; Polca replays the same probes, and the frontend's response
        cache answers them all without executing a query."""
        from repro.cachequery.backend import CacheQueryBackend
        from repro.store import PrefixStore

        configuration = Table4Configuration(
            cpu="i7-8550U", level="L1", set_index=0, reduce_associativity=2
        )
        store = PrefixStore()
        cold = run_table4_configuration(configuration, store=store)
        for key in store.namespaces():
            if key[0] == "learning":
                store.drop_namespace(key)
        executed = []
        execute = CacheQueryBackend.execute
        monkeypatch.setattr(
            CacheQueryBackend,
            "execute",
            lambda backend, query: executed.append(query) or execute(backend, query),
        )
        warm = run_table4_configuration(configuration, store=store)
        assert warm.identified_policy == cold.identified_policy == "PLRU"
        assert warm.membership_queries == cold.membership_queries > 0
        assert executed == []


class TestCLIFlags:
    def test_resume_flag_is_rejected(self, capsys):
        """The deleted ``--resume`` fails loudly instead of being ignored."""
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["table2", "--resume"])
        assert "unrecognized arguments: --resume" in capsys.readouterr().err

    def test_cache_path_flag_prints_store_summary(self, tmp_path, capsys):
        from repro.experiments import table2 as table2_module
        from repro.experiments.cli import main

        original = table2_module.table2_configurations
        table2_module.table2_configurations = lambda mode: [("LRU", 2)]
        try:
            path = tmp_path / "cli-store.json"
            assert main(["table2", "--cache-path", str(path)]) == 0
        finally:
            table2_module.table2_configurations = original
        out = capsys.readouterr().out
        assert "prefix store" in out
        assert path.exists()

    def test_workers_zero_is_explicit_serial(self, capsys):
        from repro.experiments import table2 as table2_module
        from repro.experiments.cli import main

        original = table2_module.table2_configurations
        table2_module.table2_configurations = lambda mode: [("LRU", 2)]
        try:
            assert main(["table2", "--workers", "0"]) == 0
        finally:
            table2_module.table2_configurations = original
        assert "LRU" in capsys.readouterr().out

    def test_negative_workers_rejected(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["table2", "--workers", "-1"])
        assert "0 means serial" in capsys.readouterr().err

    def test_learner_and_kernel_choices_come_from_the_registries(self, capsys):
        """Deleted names cannot survive in the CLI: ``--learner`` and
        ``--kernel`` accept exactly the library's names."""
        from repro.experiments.cli import main
        from repro.learning.learner import LEARNER_NAMES
        from repro.polca.algorithm import POLCA_KERNELS

        for flag, name in (("--learner", "kv"), ("--kernel", "numpy")):
            with pytest.raises(SystemExit):
                main(["table2", flag, name])
            assert f"invalid choice: '{name}'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["--help"])
        usage = capsys.readouterr().out
        assert f"--learner {{{','.join(LEARNER_NAMES)}}}" in usage
        assert f"--kernel {{{','.join(POLCA_KERNELS)}}}" in usage

    def test_cache_path_in_missing_directory_fails_before_learning(self, tmp_path):
        from repro.errors import StoreError
        from repro.experiments import table2 as table2_module
        from repro.experiments.cli import main

        missing = tmp_path / "nonexistent" / "dir"
        original = table2_module.table2_configurations
        table2_module.table2_configurations = lambda mode: [("LRU", 2)]
        try:
            with pytest.raises(StoreError, match="does not exist"):
                main(["table2", "--cache-path", str(missing / "c.store")])
        finally:
            table2_module.table2_configurations = original
        assert not (tmp_path / "nonexistent").exists()

    def test_store_compact_without_cache_path_rejected(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["table2", "--store-compact"])
        assert "--cache-path" in capsys.readouterr().err

    def test_format_store_statistics_line(self):
        from repro.experiments.reporting import format_store_statistics

        line = format_store_statistics(
            {
                "path": "/tmp/s.json",
                "namespaces": 2,
                "entries": 10,
                "nodes": 40,
                "bytes_on_disk": 2048,
            },
            hit_ratio=0.5,
        )
        assert "/tmp/s.json" in line
        assert "2.0 KiB" in line
        assert "50.0%" in line


class TestTable5:
    def test_policy_selection_modes(self):
        assert "SRRIP-HP" not in table5_policies("fast")
        assert "SRRIP-HP" in table5_policies("full")

    def test_fifo_and_plru_rows(self):
        rows = run_table5(policies=["FIFO", "PLRU"], max_seconds_per_policy=60)
        by_policy = {row.policy: row for row in rows}
        assert by_policy["FIFO"].template == "Simple"
        assert by_policy["FIFO"].matches_paper
        assert by_policy["PLRU"].template is None
        assert by_policy["PLRU"].matches_paper
        assert "Template" in format_table5(rows)


class TestOverheadAndLeaderSets:
    def test_overhead_shows_cachequery_is_much_slower(self):
        result = simulated_vs_cachequery_overhead("PLRU", 2)
        assert result.simulated_states == result.cachequery_states == 2
        assert result.cachequery_seconds > result.simulated_seconds
        assert result.overhead_factor > 1

    def test_mbl_query_latency_reports_all_levels(self):
        latencies = mbl_query_latency(executions=3, repetitions=1)
        assert set(latencies) == {"L1", "L2", "L3"}
        assert all(value > 0 for value in latencies.values())

    def test_leader_set_formula(self):
        leaders = leader_set_formula_check(1024)
        assert leaders[0] == 0 and len(leaders) == 16
        assert all((s & 0x2) == 0 for s in leaders)

    def test_leader_set_detection_agrees_with_formula(self):
        detection = detect_leader_sets(set_indexes=range(0, 36), repetitions=3)
        assert 0 in detection.detected_leaders
        assert 33 in detection.detected_leaders
        assert detection.formula_agreement >= 0.9
