import csv
import json
import math
import os
import re
from dataclasses import replace
from pathlib import Path

import gaussnm.channels as channels
import gaussnm.experiments as experiments

import numpy as np
import pytest

from gaussnm.experiments import (
    ExperimentConfig,
    fig_defaults,
    format_config,
    parse_config,
    run_experiment,
)
from gaussnm._spline import PiecewisePoly
from gaussnm.spectral import ChannelCoefficients, EnvironmentSpec, build_coefficients
from helpers import pair_batches


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def with_line(figure, line):
    """The config file of ``fig_defaults(figure)`` with ``line`` in place of
    the line of its key."""
    key = line.partition("=")[0]
    return "".join(f"{line}\n" if ln.startswith(f"{key}=") else f"{ln}\n"
                   for ln in format_config(fig_defaults(figure)).splitlines())


class TestConfig:
    @pytest.mark.parametrize("figure", [1, 2, 3, 4, 5])
    def test_roundtrip(self, figure):
        # fig1 has no temperatures, so its file holds an empty "T=" list
        cfg = fig_defaults(figure)
        text = format_config(cfg)
        assert text.splitlines()[0] == "schema=1"
        assert parse_config(text) == cfg

    def test_missing_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            parse_config("experiment=fig1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("schema=1\nbogus=1\n")

    def test_repeated_key_rejected(self):
        # the last of two lines won, so this config ran T = 0.5 alone
        with pytest.raises(ValueError, match="repeated config key 'T'"):
            parse_config("schema=1\nexperiment=fig4\nT=0.2\nT=0.5\n")
        with pytest.raises(ValueError, match="repeated config key 'experiment'"):
            parse_config("schema=1\nexperiment=fig4\nexperiment=fig4\n")

    def test_experiment_required(self):
        with pytest.raises(TypeError, match="experiment"):
            ExperimentConfig()
        with pytest.raises(ValueError, match="unknown experiment 'custom'"):
            ExperimentConfig(experiment="custom")

    def test_comments_and_blank_lines(self):
        text = "# comment\n\nschema=1\nexperiment=fig2\nomega0=4,6\nT=0,1\n"
        cfg = parse_config(text)
        assert cfg.experiment == "fig2"
        assert cfg.omega0 == (4.0, 6.0)
        assert cfg.temperatures == (0.0, 1.0)

    def test_inline_comments(self):
        # README's example: a comment after a value used to become part of
        # it, so "workers=0   # 0 = all cores" failed as no integer
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = re.search(r"```\n(schema=1\n.*?)```", readme, re.S).group(1)
        assert "#" in example
        assert parse_config(example) == fig_defaults(3)

    def test_alpha_range_invariant(self):
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(experiment="fig1", alpha_min=0.1, alpha_max=0.7)
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(experiment="fig1", alpha_min=-0.1, alpha_max=0.1)

    def test_phi_invariant(self):
        with pytest.raises(ValueError, match="phi"):
            ExperimentConfig(experiment="fig1", phis=(0.0,))
        with pytest.raises(ValueError, match="phi"):
            ExperimentConfig(experiment="fig1", phis=(3.5,))

    @pytest.mark.parametrize("figure, key", [
        (2, "omega0"), (2, "T"), (3, "omega0"), (3, "T"), (4, "omega0"),
        (4, "T"), (4, "phi"), (5, "omega0"), (5, "T"), (5, "phi"),
    ])
    def test_empty_list_key_rejected(self, figure, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            parse_config(with_line(figure, f"{key}="))

    @pytest.mark.parametrize("key, value", [
        ("r_max", -1.0), ("beta_max", -2.0), ("n_max", math.nan)])
    def test_bad_search_box_rejected(self, key, value):
        # parse_config builds this object, so a bad file fails when parsed
        with pytest.raises(ValueError, match=f"{key} must be finite and >= 0"):
            ExperimentConfig(experiment="fig1", **{key: value})

    @pytest.mark.parametrize("key, value, message", [
        ("traj_points", 1, ">= 2"), ("traj_points", 0, ">= 2"),
        ("n_steps", 1, ">= 2"), ("t_end", 0.0, "finite and > 0"),
        ("t_end", -5.0, "finite and > 0"), ("t_end", math.inf, "finite and > 0"),
        ("t_end", math.nan, "finite and > 0"), ("traj_points", 2.5, "an integer"),
        ("n_steps", "1e3", "an integer"), ("alpha_min", "abc", "a number"),
        ("rate", "table", "'decaying_sine' or 'constant'"),
        ("rate", "bogus", "'decaying_sine' or 'constant'")])
    def test_bad_time_grid_rejected(self, key, value, message):
        # traj_points = 1 used to write N = 0 for every squeezed point; a
        # value that does not convert, or a rate fig1 cannot build, fails
        # here by its key, not in the sweep
        with pytest.raises(ValueError, match=f"{key} must be {message}"):
            parse_config(with_line(1, f"{key}={value}"))

    @pytest.mark.parametrize("figure", [3, 4, 5])
    def test_second_omega0_rejected(self, figure):
        # figs 3-5 build every table at the first omega0
        with pytest.raises(ValueError, match=f"fig{figure} takes one 'omega0'"):
            parse_config(with_line(figure, "omega0=1,2"))

    @pytest.mark.parametrize("figure, line", [(4, "T=0.2,0.5"),
                                              (5, "phi=0.05,0.1")])
    def test_second_sweep_value_rejected(self, figure, line):
        # fig4 runs at its first T and fig5 at its first phi: a second value
        # was read by no runner and wrote no column
        key = line.partition("=")[0]
        with pytest.raises(ValueError, match=f"fig{figure} takes one '{key}' value, got 2"):
            parse_config(with_line(figure, line))

    @pytest.mark.parametrize("figure, line", [
        (1, "channel=qbm"), (1, "family=coherent"), (2, "channel=damping"),
        (3, "channel=damping"), (3, "family=squeezed"), (5, "family=coherent")])
    def test_ignored_key_rejected(self, figure, line):
        # no runner reads channel or family: fig3 with channel=damping and
        # family=squeezed still wrote the QBM coherent columns
        key, _, value = line.partition("=")
        with pytest.raises(ValueError, match=f"fig{figure} runs {key} .*, got '{value}'"):
            parse_config(with_line(figure, line))

    def test_omitted_channel_and_family_follow_the_figure(self, tmp_path):
        # they were filled from the dataclass (damping, coherent), so a fig5
        # summary recorded the wrong channel and family
        cfg = parse_config("schema=1\nexperiment=fig5\n")
        assert (cfg.channel, cfg.family) == ("qbm", "squeezed")
        cfg = parse_config("schema=1\nexperiment=fig5\nalpha_points=1\n"
                           "n_steps=40\ntraj_points=40\nT=0.3\nworkers=1\n")
        _, summary = run_experiment(cfg, tmp_path)
        with open(summary) as fh:
            config = json.load(fh)["config"]
        assert (config["channel"], config["family"]) == ("qbm", "squeezed")

    @pytest.mark.parametrize("figure", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("line, field, value", [
        ("alpha_points=3", "alpha_points", 3), ("t_end=12.5", "t_end", 12.5),
        ("phi=0.3", "phis", (0.3,))])
    def test_one_line_overrides_the_figure(self, figure, line, field, value):
        # omitted keys took the dataclass defaults: fig1 ran t_end = 40 and
        # dropped its phi = 0.2 column
        cfg = parse_config(f"schema=1\nexperiment=fig{figure}\n{line}\n")
        assert cfg == replace(fig_defaults(figure), **{field: value})

    @pytest.mark.parametrize("text", ["schema=1\nexperiment=custom\n",
                                      "schema=1\nalpha_points=3\n",
                                      "schema=1\nexperiment=fig6\n"])
    def test_no_runnable_experiment_rejected(self, text):
        # experiment=custom parsed, and then run_experiment raised
        with pytest.raises(ValueError, match="experiment must be one of "
                                             "fig1, fig2, fig3, fig4, fig5, got"):
            parse_config(text)

    def test_empty_displacement_box_rejected(self):
        with pytest.raises(ValueError, match="beta_max must be > 0"):
            parse_config(with_line(3, "beta_max=0"))

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ExperimentConfig(experiment="fig1", workers=-3)

    def test_temperature_units(self):
        cfg = replace(fig_defaults(2), omega_c=2.0)
        assert cfg.temperature_unit == "omega_c"
        assert cfg.kelvin(0.5, 4.0) == 1.0
        assert replace(cfg, temperature_unit="omega0").kelvin(0.5, 6.0) == 3.0
        cfg3 = fig_defaults(3)
        assert cfg3.kelvin(0.2, 1.0) == pytest.approx(0.2)


@pytest.fixture(scope="module")
def small_fig1(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    cfg = replace(fig_defaults(1), alpha_points=4, workers=1)
    with pair_batches() as rows:  # one process: every search is recorded
        paths = run_experiment(cfg, out)
    return cfg, paths, rows


class TestFig1:
    def test_schema(self, small_fig1):
        _, paths, _ = small_fig1
        data = read_csv(paths[0])
        assert len(data.dtype.names) == 7
        assert data.dtype.names[0] == "alpha"

    def test_reference_value_present(self, tmp_path):
        cfg = replace(fig_defaults(1), alpha_min=0.1, alpha_max=0.1,
                      alpha_points=1, phis=(0.1,), workers=1)
        paths = run_experiment(cfg, tmp_path)
        data = read_csv(paths[0])
        assert float(data["coherent_exact"]) == pytest.approx(0.0459, abs=5e-4)

    def test_first_order_tracks_exact_for_coherent(self, small_fig1):
        _, paths, _ = small_fig1
        data = read_csv(paths[0])
        mask = data["alpha"] <= 0.1
        gap = np.abs(data["coherent_exact"][mask]
                     - data["coherent_first_order"][mask])
        assert np.max(gap / data["coherent_exact"][mask]) <= 0.02

    def test_squeezed_above_coherent(self, small_fig1):
        _, paths, _ = small_fig1
        data = read_csv(paths[0])
        assert np.all(data["squeezed_exact_phi01"] > data["coherent_exact"])
        assert np.all(data["squeezed_exact_phi01"] > data["squeezed_exact_phi02"])

    def test_summary_sidecar(self, small_fig1):
        cfg, paths, rows = small_fig1
        with open(paths[1]) as fh:
            summary = json.load(fh)
        assert summary["schema"] == 1
        assert summary["experiment"] == "fig1"
        assert "optimizer" in summary and "quadrature" in summary
        # every (r1, r2) search: a 78-point grid, then chords of a 33-point
        # grid and one batch per zoom step (at most 17 pairs), at least one
        # chord along (1, 1) and (1, -1)
        optimizer = summary["optimizer"]
        searches = len(cfg.phis) * cfg.alpha_points
        chords = rows.count(33)
        assert rows.count(78) == searches and chords >= 2 * searches
        assert optimizer["iterations"] == len(rows) - searches - chords
        assert optimizer["grid_evaluations"] == 78 * searches + 33 * chords


class TestFig2:
    def test_curves_and_zero_temperature_column(self, tmp_path):
        cfg = replace(fig_defaults(2), n_steps=400, workers=1)
        paths = run_experiment(cfg, tmp_path)
        data = read_csv(paths[0])
        assert len(data.dtype.names) == 1 + 8  # t plus 2 omega0 x 4 T curves
        env = EnvironmentSpec(omega0=4.0, omega_c=1.0, temperature=0.0)
        table = build_coefficients(env, alpha=1.0, t_end=cfg.t_end, n_steps=400)
        assert np.allclose(data["delta_omega0_4_T0"], table.delta, atol=1e-12)

    def test_builds_no_delta_spline(self, tmp_path, monkeypatch):
        # the coefficient curves need no Delta roots: a table computes its
        # spline and intervals only when asked
        def refuse(*args):
            raise AssertionError("fig2 asked for Delta's spline or roots")

        monkeypatch.setattr(PiecewisePoly, "negative_intervals", refuse)
        monkeypatch.setattr(ChannelCoefficients, "delta_spline", refuse)
        assert run_experiment(tiny_config(2, workers=1), tmp_path)

    def test_negative_regions_pattern(self, tmp_path):
        # far from resonance the low-T curve keeps negative regions; close
        # to resonance they shrink
        cfg = replace(fig_defaults(2), n_steps=600, workers=1)
        paths = run_experiment(cfg, tmp_path)
        data = read_csv(paths[0])
        assert data["delta_omega0_6_T02"].min() < 0.0
        assert data["delta_omega0_6_T02"].min() < data["delta_omega0_4_T02"].min()

    def test_high_temperature_thermal_linearity(self, tmp_path):
        # doubling T doubles the thermal part once k_B T clears both
        # frequency scales (T >= 10 omega0 here)
        cfg = replace(fig_defaults(2), n_steps=400, omega0=(4.0,),
                      temperatures=(0.0, 10.0, 20.0), workers=1)
        paths = run_experiment(cfg, tmp_path)
        data = read_csv(paths[0])
        d0 = data["delta_omega0_4_T0"]
        tha = data["delta_omega0_4_T10"] - d0
        thb = data["delta_omega0_4_T20"] - d0
        scale = np.max(np.abs(thb))
        mask = np.abs(thb) > 0.25 * scale
        ratios = thb[mask] / tha[mask]
        assert np.max(np.abs(ratios - 2.0)) <= 0.12


class TestQbmSweeps:
    def test_fig3_first_order_close_at_weak_coupling(self, tmp_path):
        cfg = replace(fig_defaults(3), alpha_points=3, alpha_max=0.09,
                      temperatures=(0.2,), n_steps=1200, traj_points=1200,
                      workers=1)
        paths = run_experiment(cfg, tmp_path)
        data = read_csv(paths[0])
        exact = data["coherent_T02_exact"]
        first = data["coherent_T02_first_order"]
        assert np.max(np.abs(exact - first) / exact) <= 0.05

    def test_fig4_squeezed_saturates_faster_for_small_phi(self, tmp_path):
        cfg = replace(fig_defaults(4), alpha_points=4, n_steps=1200,
                      traj_points=1200, workers=1)
        paths = run_experiment(cfg, tmp_path)
        data = read_csv(paths[0])
        # growth factor over the alpha range is smaller for the smaller angle
        g_small = (data["squeezed_phi005_exact"][-1]
                   / data["squeezed_phi005_exact"][0])
        g_large = (data["squeezed_phi01_exact"][-1]
                   / data["squeezed_phi01_exact"][0])
        assert g_small < g_large
        assert np.all(data["squeezed_phi005_exact"]
                      >= data["squeezed_phi01_exact"] - 1e-12)

    def test_fig5_plateau_ordering_small_grid(self, tmp_path):
        cfg = replace(fig_defaults(5), alpha_points=3, alpha_min=0.1,
                      temperatures=(0.9, 4.0), n_steps=1200, traj_points=1200,
                      workers=1)
        paths = run_experiment(cfg, tmp_path)
        data = read_csv(paths[0])
        assert np.all(data["squeezed_T4_exact"] >= data["squeezed_T09_exact"])


_TINY = {
    1: dict(alpha_points=2, traj_points=300, phis=(0.1, 0.2)),
    2: dict(n_steps=300),
    3: dict(alpha_points=2, n_steps=300, traj_points=300),
    4: dict(alpha_points=2, n_steps=300, traj_points=300, phis=(0.05, 0.1)),
    5: dict(alpha_points=2, n_steps=300, traj_points=300,
            temperatures=(0.3, 0.9)),
}


def tiny_config(figure, workers):
    """A few-second version of a canned sweep."""
    return replace(fig_defaults(figure), workers=workers, **_TINY[figure])


class TestDeterminismAndWorkers:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = replace(fig_defaults(1), alpha_points=3, phis=(0.1,), workers=1)
        p1 = run_experiment(cfg, tmp_path / "a")
        p2 = run_experiment(cfg, tmp_path / "b")
        assert Path(p1[0]).read_bytes() == Path(p2[0]).read_bytes()
        assert Path(p1[1]).read_text() == Path(p2[1]).read_text()

    @pytest.mark.parametrize("figure", [1, 2, 3, 4, 5])
    def test_worker_pool_matches_serial(self, tmp_path, figure):
        # fig4: three curves share one table; figs 3 and 5: two tables
        p1 = run_experiment(tiny_config(figure, workers=1), tmp_path / "serial")
        p2 = run_experiment(tiny_config(figure, workers=2), tmp_path / "pool")
        assert Path(p1[0]).read_bytes() == Path(p2[0]).read_bytes()
        s1, s2 = (json.loads(Path(p[1]).read_text()) for p in (p1, p2))
        assert (s1["config"].pop("workers"), s2["config"].pop("workers")) == (1, 2)
        assert s1 == s2

    def test_pool_workers_repeat_no_root_search(self, tmp_path, monkeypatch):
        # the sweep finds each table's Delta intervals before the fan-out,
        # so the forked workers inherit them and never search again
        parent, original = os.getpid(), PiecewisePoly.negative_intervals

        def parent_only(spline, t_end):
            if os.getpid() != parent:
                raise AssertionError("a pool worker searched Delta's roots")
            return original(spline, t_end)

        monkeypatch.setattr(PiecewisePoly, "negative_intervals", parent_only)
        p1 = run_experiment(tiny_config(4, workers=2), tmp_path / "pool")
        monkeypatch.undo()
        p2 = run_experiment(tiny_config(4, workers=1), tmp_path / "serial")
        assert Path(p1[0]).read_bytes() == Path(p2[0]).read_bytes()

    def test_one_propagator_per_coupling(self, tmp_path, monkeypatch):
        # fig4's three curves share one temperature: each coupling's rescaled
        # table, and so its propagator, serves all of them
        cfg, built, original = tiny_config(4, workers=1), [], channels.QbmPropagator

        def counted(coeffs):
            built.append(coeffs.alpha)
            return original(coeffs)

        monkeypatch.setattr(channels, "QbmPropagator", counted)
        shared = run_experiment(cfg, tmp_path / "shared")
        assert built == cfg.alphas.tolist()
        # a new propagator on every request writes the same CSV
        monkeypatch.setattr(channels.QbmChannel, "propagator",
                            property(lambda self: original(self.coeffs)))
        fresh = run_experiment(cfg, tmp_path / "fresh")
        assert Path(shared[0]).read_bytes() == Path(fresh[0]).read_bytes()

    def test_points_fork_once_per_extra_worker(self, tmp_path, monkeypatch):
        # four fig1 points on two workers: this process runs two of them
        forks, real_fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(0) or real_fork())
        p2 = run_experiment(tiny_config(1, workers=2), tmp_path / "pool")
        assert len(forks) == 1
        # off Linux the points run in this process
        monkeypatch.setattr(experiments.sys, "platform", "darwin")
        p1 = run_experiment(tiny_config(1, workers=2), tmp_path / "serial")
        assert len(forks) == 1
        with open(p1[0], "rb") as serial, open(p2[0], "rb") as pool:
            assert serial.read() == pool.read()

    def test_qbm_sweep_forks_once(self, tmp_path, monkeypatch):
        # two temperatures: their tables are built in this process, so the
        # points' fork is the sweep's only one and no process pool starts
        forks, real_fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(0) or real_fork())

        def no_pool(*args, **kwargs):
            raise AssertionError("a QBM sweep started a process pool")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        run_experiment(tiny_config(3, workers=2), tmp_path)
        assert len(forks) == 1

    def test_point_workers_only_maximize(self, tmp_path, monkeypatch):
        # the first-order columns are computed before the fork, so a forked
        # point worker builds no propagator and runs no first-order law
        parent = os.getpid()

        def parent_only(fn):
            def call(*args, **kwargs):
                if os.getpid() != parent:
                    raise AssertionError(f"a point worker called {fn.__name__}")
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(channels, "QbmPropagator",
                            parent_only(channels.QbmPropagator))
        for name in ("first_order_coherent", "first_order_squeezed_max"):
            monkeypatch.setattr(experiments, name,
                                parent_only(getattr(experiments, name)))
        p2 = run_experiment(tiny_config(4, workers=2), tmp_path / "pool")
        monkeypatch.undo()
        p1 = run_experiment(tiny_config(4, workers=1), tmp_path / "serial")
        assert Path(p1[0]).read_bytes() == Path(p2[0]).read_bytes()

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "child"])
    def test_point_error_reaches_the_caller(self, tmp_path, monkeypatch,
                                            failing):
        # fig1's tasks alternate alpha, so with two workers every alphas[0]
        # point runs in this process and every alphas[1] point in the child
        cfg = tiny_config(1, workers=2)
        bad_alpha = cfg.alphas[failing]
        original = experiments._point

        def point(cfg, channel, *args):
            if channel.alpha == bad_alpha:
                raise ArithmeticError(f"no point at alpha = {bad_alpha}")
            return original(cfg, channel, *args)

        monkeypatch.setattr(experiments, "_point", point)
        with pytest.raises(ArithmeticError, match=f"alpha = {bad_alpha}"):
            run_experiment(cfg, tmp_path)
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_worker_that_dies_is_named(self, tmp_path, monkeypatch):
        original = experiments._point
        parent = os.getpid()

        def point(*args):
            if os.getpid() != parent:
                os._exit(3)
            return original(*args)

        monkeypatch.setattr(experiments, "_point", point)
        with pytest.raises(RuntimeError, match="worker 1 exited with status 3"):
            run_experiment(tiny_config(1, workers=2), tmp_path)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unpicklable_child_result_is_named(self):
        # a child whose result cannot be pickled sends the pickling error
        tasks = [(int, ("1",)), (lambda: (lambda: 0), ())]
        with pytest.raises(RuntimeError, match="(?i)pickle"):
            experiments._run_tasks(tasks, 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_thread_cap_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAUSSNM_THREADS", "1")
        cfg = replace(fig_defaults(2), n_steps=200, workers=8)
        paths = run_experiment(cfg, tmp_path)
        assert paths

    def test_thread_cap_env_must_be_integer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAUSSNM_THREADS", "two")
        with pytest.raises(ValueError, match="GAUSSNM_THREADS"):
            run_experiment(tiny_config(2, workers=1), tmp_path)

    @pytest.mark.parametrize("figure, tables, unit", [
        pytest.param(2, 4, "omega_c", id="2-4"),
        pytest.param(2, 4, "omega0", id="2-4-T_unit_omega0"),
        pytest.param(4, 1, "omega0", id="4-1"),
        pytest.param(5, 2, "omega0", id="5-2")])
    def test_one_table_per_temperature(self, tmp_path, monkeypatch, figure,
                                       tables, unit):
        # fig2 repeats T = 0: two omega0 times two distinct T, six columns;
        # with T_unit=omega0 each column's k_B T takes its own omega0
        cfg = tiny_config(figure, workers=1)
        if figure == 2:
            cfg = replace(cfg, temperatures=(0.0, 0.2, 0.0),
                          temperature_unit=unit)
        calls = []
        original = experiments.build_coefficients

        def counting(*args, **kwargs):
            calls.append((args[0].omega0, args[0].temperature))
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "build_coefficients", counting)
        paths = run_experiment(cfg, tmp_path)
        assert len(set(calls)) == len(calls) == tables
        if figure == 2:  # every column is still its own (omega0, T) table
            with open(paths[0], newline="") as fh:
                columns = list(zip(*csv.reader(fh)))
            expected = [
                (f"delta_omega0_{w0:g}_T{tv:g}", *(f"{v:.12g}" for v in original(
                    EnvironmentSpec(w0, cfg.omega_c, cfg.kelvin(tv, w0)), alpha=1.0,
                    t_end=cfg.t_end, n_steps=cfg.n_steps).delta))
                for w0 in cfg.omega0 for tv in cfg.temperatures]
            assert len(columns) == 1 + 6 and columns[1:] == expected

    @pytest.mark.parametrize("figure", [1, 5])
    def test_summary_counts_every_stagnation(self, tmp_path, monkeypatch,
                                             figure):
        calls = []
        original = experiments.maximize_measure

        def stagnating(*args, **kwargs):
            res = original(*args, **kwargs)
            res.diagnostics["stagnation"] = True
            calls.append(res)
            return res

        monkeypatch.setattr(experiments, "maximize_measure", stagnating)
        paths = run_experiment(tiny_config(figure, workers=1), tmp_path)
        with open(paths[1]) as fh:
            optimizer = json.load(fh)["optimizer"]
        assert len(calls) == 4
        assert optimizer["stagnation_count"] == len(calls)


def test_rescale_coefficients():
    env = EnvironmentSpec(omega0=1.0, omega_c=0.5, temperature=0.0)
    base = build_coefficients(env, alpha=1.0, t_end=5.0, n_steps=100)
    scaled = base.rescaled(0.25)
    assert scaled.alpha == 0.25
    assert np.allclose(scaled.x, 0.25 * base.x)
    assert np.allclose(scaled.gamma, base.gamma)
    assert scaled.env == env
