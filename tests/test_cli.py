"""The ``python -m repro`` command-line interface."""

import pytest

from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_parses(self):
        args = build_parser().parse_args(["figure", "fig10", "--fast"])
        assert args.id == "fig10"
        assert args.fast

    def test_microbench_engine_flag(self):
        args = build_parser().parse_args(["microbench", "--engine"])
        assert args.engine

    def test_figure_profile_flags_parse(self):
        args = build_parser().parse_args(
            ["figure", "fig10", "--profile", "mid"]
        )
        assert args.profile == "mid"

    def test_figure_profile_defaults_to_toy(self):
        args = build_parser().parse_args(["figure", "fig10"])
        assert args.profile == "toy"

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig10", "--profile", "huge"])

    def test_tile_backing_flags_parse(self):
        args = build_parser().parse_args(
            ["figure", "fig10", "--tile-backing", "disk",
             "--tile-store-root", "/tmp/tiles"]
        )
        assert args.tile_backing == "disk"
        assert args.tile_store_root == "/tmp/tiles"

    def test_tile_backing_defaults_to_profile(self):
        args = build_parser().parse_args(["figure", "fig10"])
        assert args.tile_backing is None
        assert args.tile_store_root is None

    def test_unknown_tile_backing_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["figure", "fig10", "--tile-backing", "tape"]
            )

    def test_serve_parses_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8321
        assert args.store == ".repro_service"
        assert args.jobs == 1

    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--store", "/tmp/svc",
             "--jobs", "4"]
        )
        assert args.port == 9000
        assert args.store == "/tmp/svc"
        assert args.jobs == 4


class TestCountFlags:
    """A bad worker count is a usage error naming its flag, raised
    before any dataset or store is touched."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["figure", "fig10", "--workers", "-4"], "--workers"),
            (["figure", "fig3", "--fast", "--workers", "-1"], "--workers"),
            (["serve", "--jobs", "0"], "--jobs"),
            (["serve", "--job-workers", "-1"], "--job-workers"),
        ],
    )
    def test_bad_count_is_a_usage_error(
        self, argv, flag, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_chunk_size_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        """Every profile runs one chunk length, so ``--chunk-size`` is
        no option: passing it is a usage error naming it."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig10", "--profile", "mid", "--chunk-size", "1024"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --chunk-size 1024" in err
        assert list(tmp_path.iterdir()) == []

    def test_counts_at_their_minimum_parse(self):
        parser = build_parser()
        figure = parser.parse_args(["figure", "fig10", "--workers", "0"])
        assert figure.workers == 0
        serve = parser.parse_args(
            ["serve", "--jobs", "1", "--job-workers", "0"]
        )
        assert (serve.jobs, serve.job_workers) == (1, 0)


class TestTileBackingCommand:
    def test_fast_figure_runs_disk_backed(self, capsys, tmp_path):
        from repro.experiments.runner import clear_result_cache

        # drop memoised cells: backing shares digests by design, so a
        # memo hit from an earlier test would skip the disk build
        clear_result_cache()
        assert main(["figure", "fig3", "--fast", "--tile-backing", "disk",
                     "--tile-store-root", str(tmp_path)]) == 0
        assert "fig3" in capsys.readouterr().out
        assert list(tmp_path.glob("tiles-*"))  # store was built there

    def test_note_for_scale_free_figures(self, capsys):
        assert main(["figure", "fig9", "--tile-backing", "disk"]) == 0
        assert "does not take a scale profile" in capsys.readouterr().err


class TestListCommand:
    def test_lists_all_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out


class TestFigureCommand:
    def test_unknown_figure_fails(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_id_normalisation(self, capsys):
        assert main(["figure", "Fig.19b", "--fast"]) == 0
        assert "Qa" in capsys.readouterr().out

    def test_fast_figure_runs(self, capsys):
        assert main(["figure", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "single-row" in out

    def test_every_figure_has_fast_kwargs_that_bind(self):
        import inspect

        for name, (fn, _headline, fast_kwargs) in FIGURES.items():
            signature = inspect.signature(fn)
            for key in fast_kwargs:
                assert key in signature.parameters, (name, key)


class TestProfilesCommand:
    def test_knob_table_printed(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        for column in ("toy", "mid", "paper"):
            assert column in out
        assert "piccolo_cache_bytes" in out
        assert "4194304" in out  # the paper profile's 4 MB cache
        assert "replay_capacity" not in out  # no path keeps a memo
        assert "chunk_size" not in out  # one chunk length for every profile

    def test_profile_note_for_scale_free_figures(self, capsys):
        # fig9 (the FPGA microbench) has no scale dimension; a non-toy
        # profile still runs but says it was ignored.
        assert main(["figure", "fig9", "--profile", "mid"]) == 0
        captured = capsys.readouterr()
        assert "single-row" in captured.out
        assert "does not take a scale profile" in captured.err


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "protocol clean" in out


class TestDatasetsCommand:
    def test_registry_printed(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for key in ("UU", "TW", "SW", "FS", "PP", "KN28"):
            assert key in out
