import pytest

from punctrl.metrics import (
    EpisodeRow,
    ProbeRow,
    SummaryRow,
    aggregate_episodes,
    aggregate_probes,
    mean_std,
    read_csv,
    write_csv,
)


def episode_row(agent="eg", seed=0, episode=1, reward=1.0, **overrides):
    row = EpisodeRow(
        run_id=f"{agent}-s{seed}",
        agent=agent,
        seed=seed,
        episode=episode,
        sum_reward=reward,
        tx_interrupted_ratio=0.1,
        urllc_missed_ratio=0.02,
        critical_missed_ratio=0.0,
        epsilon_end=0.5,
    )
    for key, value in overrides.items():
        setattr(row, key, value)
    return row


class TestWriteCsv:
    def test_empty_rows_write_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path, EpisodeRow)
        text = path.read_text()
        assert text == (
            "run_id,agent,seed,episode,sum_reward,tx_interrupted_ratio,"
            "urllc_missed_ratio,critical_missed_ratio,epsilon_end\n"
        )

    def test_round_trip_is_lossless(self, tmp_path):
        rows = [
            episode_row(reward=1 / 3),
            episode_row(episode=2, reward=2.718281828459045e-5),
            episode_row(episode=3, reward=-12345.678901234567),
        ]
        path = tmp_path / "rt.csv"
        write_csv(rows, path)
        assert read_csv(path, EpisodeRow) == rows

    def test_absent_optionals_are_empty_cells(self, tmp_path):
        rows = [ProbeRow("eg-s0_final", "eg", 0, md=1.5)]
        path = tmp_path / "probes.csv"
        write_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "eg-s0_final,eg,0,1.5,,,"
        assert read_csv(path, ProbeRow) == rows

    def test_mixed_row_types_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([episode_row(), ProbeRow("x", "eg", 0)], tmp_path / "bad.csv")

    def test_empty_rows_need_explicit_type(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "no_type.csv")

    def test_identical_rows_identical_bytes(self, tmp_path):
        rows = [episode_row(reward=0.1234567890123456789)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows, a)
        write_csv(rows, b)
        assert a.read_bytes() == b.read_bytes()


class TestReadCsv:
    def written(self, tmp_path):
        path = tmp_path / "episodes.csv"
        write_csv([episode_row(), episode_row(episode=2)], path)
        return path

    def test_truncated_last_row_names_its_line(self, tmp_path):
        path = self.written(tmp_path)
        path.write_text(path.read_text()[:-20])
        with pytest.raises(ValueError, match=r"episodes\.csv:3: \d cells, the header has 9"):
            read_csv(path, EpisodeRow)

    def test_extra_cells_rejected(self, tmp_path):
        path = self.written(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] += ",7"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"episodes\.csv:2: 10 cells, the header has 9"):
            read_csv(path, EpisodeRow)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "episodes.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=r"episodes\.csv:1: expected header"):
            read_csv(path, EpisodeRow)


class TestMeanStd:
    def test_single_value(self):
        assert mean_std([4.2]) == (4.2, 0.0)

    def test_hand_arithmetic(self):
        mean, std = mean_std([96.0, 113.0, 79.0])
        assert mean == pytest.approx(96.0)
        assert std == pytest.approx(17.0)

    def test_constant_sequence(self):
        mean, std = mean_std([7.0] * 5)
        assert mean == 7.0 and std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_std([])


class TestAggregateEpisodes:
    def test_single_row_group(self):
        rows = [episode_row(reward=3.5)]
        summary = aggregate_episodes(rows)
        entry = next(s for s in summary if s.metric == "sum_reward")
        assert entry.mean == 3.5 and entry.std == 0.0 and entry.n == 1

    def test_groups_by_agent_and_episode(self):
        rows = [
            episode_row(agent="eg", seed=0, episode=1, reward=1.0),
            episode_row(agent="eg", seed=1, episode=1, reward=3.0),
            episode_row(agent="vb", seed=0, episode=1, reward=10.0),
        ]
        summary = aggregate_episodes(rows)
        eg = next(s for s in summary if s.agent == "eg" and s.metric == "sum_reward")
        assert eg.mean == 2.0 and eg.min == 1.0 and eg.max == 3.0 and eg.n == 2
        vb = next(s for s in summary if s.agent == "vb" and s.metric == "sum_reward")
        assert vb.mean == 10.0 and vb.n == 1

    def test_permutation_invariant(self):
        rows = [
            episode_row(seed=0, reward=1.0),
            episode_row(seed=1, reward=2.0),
            episode_row(seed=2, reward=4.0),
        ]
        assert aggregate_episodes(rows) == aggregate_episodes(rows[::-1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_episodes([])


class TestAggregateProbes:
    def test_skips_absent_metrics(self):
        rows = [
            ProbeRow("eg-1", "eg", 0, md=2.0),
            ProbeRow("eg-1", "eg", 1, md=4.0),
        ]
        summary = aggregate_probes(rows)
        metrics = {s.metric for s in summary}
        assert metrics == {"md"}
        md = summary[0]
        assert md.mean == 3.0 and md.n == 2

    def test_steps_until_explore_stats(self):
        rows = [ProbeRow("vb-1", "vb", i, steps_until_explore=v) for i, v in enumerate([96, 113, 79])]
        summary = aggregate_probes(rows)
        entry = next(s for s in summary if s.metric == "steps_until_explore")
        assert entry.mean == pytest.approx(96.0)
        assert entry.std == pytest.approx(17.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_probes([])


class TestSummaryCsv:
    def test_summary_rows_round_trip(self, tmp_path):
        rows = [
            SummaryRow("eg", 1, "sum_reward", 2.0, 1.0, 1.0, 3.0, 2),
            SummaryRow("eg", None, "md", 1.5, 0.1, 1.4, 1.6, 3),
        ]
        path = tmp_path / "summary.csv"
        write_csv(rows, path)
        assert read_csv(path, SummaryRow) == rows
