"""Command-line interface: config merging, CSV and manifest output, exit codes.

End-to-end runs go through ``main`` with small grids and trial counts so
the whole module stays fast; the heavy numerical claims live in the other
test modules. File outputs are checked as bytes where reproducibility is
the contract.
"""

import csv
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oamlink.crosstalk
from oamlink.cli import (
    DEFAULTS,
    EXIT_BOUNDARY,
    EXIT_CONFIG,
    EXIT_NONCONVERGED,
    EXIT_OK,
    ConfigError,
    RunConfig,
    _dbm,
    _parse_args,
    build_parser,
    load_config,
    main,
    parse_config_text,
    write_csv,
    write_manifest,
)
from oamlink.ber import BerResult
from oamlink.crosstalk import Method
from oamlink.montecarlo import TrialConfig, simulate_ber
from oamlink.sweep import TOL_ULPS


def cfg_with(**overrides):
    raw = dict(DEFAULTS)
    raw.update({k.replace("__", "."): v for k, v in overrides.items()})
    return RunConfig(raw=raw)


def read_csv_file(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    rows = list(csv.reader(lines[1:]))
    return lines[0][2:], rows[0], rows[1:]


class TestConfigText:
    def test_comments_prefixes_and_values(self):
        text = "\n".join(
            [
                "# a comment",
                "",
                "geometry.w0_m = 0.02",
                "config.mc.seed = 9",
                "manifest.tool = oamlink",
                "  modes.tx =  -2,1  ",
            ]
        )
        out = parse_config_text(text, "inline")
        assert out == {
            "geometry.w0_m": "0.02",
            "mc.seed": "9",
            "modes.tx": "-2,1",
        }

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("geometry.w0 = 0.02", "inline")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("mc.seed = 1\nmc.seed = 2", "inline")

    def test_default_config_file_spells_out_the_defaults(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
        assert parse_config_text(path.read_text(encoding="utf-8"), str(path)) == DEFAULTS

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("mc.seed 1", "inline")

    def test_line_number_in_message(self):
        with pytest.raises(ConfigError, match="inline:3"):
            parse_config_text("# ok\nmc.seed = 1\nnope = 2", "inline")


class TestLoadConfigPrecedence:
    def test_flags_beat_set_beat_file_beat_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("mc.seed = 1\ngeometry.w0_m = 0.02\n", encoding="utf-8")
        cfg = load_config(str(cfg_file), ["mc.seed=2"], {"mc.seed": "3"})
        assert cfg.text("mc.seed") == "3"
        assert cfg.text("geometry.w0_m") == "0.02"
        assert cfg.text("geometry.distance_m") == DEFAULTS["geometry.distance_m"]

    def test_set_item_validation(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(None, ["nope=1"], {})
        with pytest.raises(ConfigError, match="duplicate key"):
            load_config(None, ["mc.seed=1", "mc.seed=2"], {})
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            load_config(None, ["mc.seed"], {})

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(str(tmp_path / "missing.cfg"), [], {})


class TestModeSpecAndAccessors:
    def test_typed_accessors(self):
        cfg = cfg_with()
        assert cfg.number("geometry.w0_m") == 0.025
        assert cfg.integer("receiver.k_r") == 6
        assert cfg.flag("mc.allow_degraded") is False
        assert cfg.numbers("sweep.grid") == ()
        bad = cfg_with(**{"quad__order": "soon", "mc__allow_degraded": "maybe",
                          "sweep__grid": "1,x"})
        with pytest.raises(ConfigError, match="must be an integer"):
            bad.integer("quad.order")
        with pytest.raises(ConfigError, match="must be a number"):
            bad.number("quad.order")
        with pytest.raises(ConfigError, match="true or false"):
            bad.flag("mc.allow_degraded")
        with pytest.raises(ConfigError, match="comma-separated numbers"):
            bad.numbers("sweep.grid")

    def test_structured_accessors(self):
        cfg = cfg_with()
        geom = cfg.geometry()
        assert geom.waist == 0.025
        rx = cfg.receiver()
        assert rx.noise_level == 6.35e-16
        modes = cfg.mode_set()
        assert modes.tx_modes == (-2, 1)
        assert modes.filter_modes == (-2, 1)
        cands = cfg.candidates()
        assert [
            "|".join(",".join(str(m) for m in g) for g in c.streams) for c in cands
        ] == ["-2|2", "-2|1", "-1|1", "-4,-2|1,3"]

    def test_structured_accessor_errors_become_config_errors(self):
        with pytest.raises(ConfigError, match="geometry"):
            cfg_with(geometry__w0_m="-1").geometry()
        with pytest.raises(ConfigError, match="receiver"):
            cfg_with(receiver__k_r="1").receiver()
        with pytest.raises(ConfigError, match="comma-separated integers"):
            cfg_with(modes__tx="a,b").mode_set()
        with pytest.raises(ConfigError, match="modes"):
            cfg_with(modes__tx="1,1").mode_set()

    def test_grouping_accessor(self):
        cfg = cfg_with(modes__tx="-4,-2,1,3", modes__grouping="-4,-2|1,3")
        assert cfg.mode_set().streams == ((-4, -2), (1, 3))

    def test_method_accessors(self):
        assert len(cfg_with(method="exact2d,bessel-sum").methods()) == 2
        with pytest.raises(ConfigError, match="duplicate methods"):
            cfg_with(method="exact2d,exact2d").methods()
        with pytest.raises(ConfigError, match="exactly one method"):
            cfg_with(method="exact2d,bessel-sum").single_method()
        with pytest.raises(ConfigError):
            cfg_with(method="fft").methods()

    def test_pointing_and_link(self):
        bessel_sum = (Method.BESSEL_SUM,)
        with pytest.raises(ConfigError, match="sigma_theta"):
            cfg_with(pointing__sigma_theta_rad="", pointing__r_ch_m="5").link(bessel_sum)
        with pytest.raises(ConfigError, match="quad.order"):
            cfg_with(quad__order="8").quad_order()
        geom, _, sigma_theta = cfg_with().link(bessel_sum)
        assert (sigma_theta, geom.distance) == (3e-5, 1e6)
        # Only a method with a Bessel kernel is held to the Bessel range.
        wide = cfg_with(receiver__aperture_radius_m="1.5")
        with pytest.raises(ConfigError, match="receiver.aperture_radius_m 1.5 m takes Bessel"):
            wide.link(bessel_sum)
        assert wide.link((Method.ASYMPTOTIC,))[1].aperture_radius == 1.5
        trial_cfg = cfg_with().trial_config()
        assert (trial_cfg.trials, trial_cfg.seed) == (1_000_000, 12345)
        with pytest.raises(ConfigError, match="trials"):
            cfg_with(mc__trials="10").trial_config()

    def test_output_path_required(self):
        with pytest.raises(ConfigError, match="set output.path"):
            cfg_with().output_path("bench")
        assert cfg_with(output__path="x.csv").output_path("bench") == "x.csv"


class TestOutputHelpers:
    def test_write_csv_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), "demo v1", ("a", "b"), [(0.1, 2), (math.nan, "x")])
        raw = path.read_bytes()
        assert raw.startswith(b"# demo v1\r\n")
        assert raw.count(b"\r\n") == 4
        schema, header, rows = read_csv_file(path)
        assert schema == "demo v1"
        assert header == ["a", "b"]
        assert rows == [["0.1", "2"], ["nan", "x"]]

    def test_dbm(self):
        assert _dbm(1e-3, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert _dbm(1.0, 1.0) == pytest.approx(30.0)
        assert _dbm(1e-3, 2.0) == pytest.approx(10.0 * math.log10(2.0))
        assert _dbm(0.0, 1.0) == -math.inf

    def test_manifest_roundtrips_as_config(self, tmp_path):
        cfg = cfg_with(mc__seed="77", output__path=str(tmp_path / "out.csv"))
        man = tmp_path / "out.csv.manifest"
        write_manifest(str(man), "monte-carlo", cfg, {"workers": "2"})
        text = man.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "manifest.tool = oamlink"
        assert "manifest.command = monte-carlo" in text
        assert "manifest.workers = 2" in text
        parsed = parse_config_text(text, str(man))
        assert parsed == dict(cfg.raw)


class TestMainErrors:
    def test_config_error_exit_and_message(self, capsys):
        assert main(["monte-carlo"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_set_key(self, tmp_path):
        out = tmp_path / "o.csv"
        args = ["monte-carlo", "-o", str(out), "-s", "bogus=1"]
        assert main(args) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "args, env, key",
        [
            (["monte-carlo", "--trials", "10"], None, "trials"),
            (["monte-carlo", "--seed=-1"], None, "seed"),
            (["ber-curve", "--monte-carlo", "--trials", "10", "--grid", "0.02"], None, "trials"),
            (["monte-carlo"], "abc", "OAMLINK_WORKERS"),
            (["crosstalk-curve", "--grid", "5", "-s", "receiver.tx_power_w=-1"], None,
             "receiver.tx_power_w"),
            (["crosstalk-curve", "--grid", "5", "-s", "receiver.tx_power_w=nan"], None,
             "receiver.tx_power_w"),
            (["ber-curve", "--grid", "0.02", "-s", "receiver.noise_level=inf"], None,
             "noise_level"),
            (["ber-curve", "--grid", "0.02", "-s", "receiver.noise_level=inf"], None,
             "receiver.noise_level"),
            (["ber-curve", "--axis", "Z", "--grid", "1e6", "-s", "geometry.w0_m=-1"], None,
             "geometry.w0_m"),
            (["ber-curve", "--grid", "0.02", "-s", "pointing.sigma_theta_rad=-1"], None,
             "pointing.sigma_theta_rad"),
            (["ber-curve", "--grid", "0.02", "-s", "geometry.distance_m=0"], None,
             "geometry.distance_m"),
            (["ber-curve", "--grid", "0.02", "-s", "receiver.k_r=1"], None, "receiver.k_r"),
            (["bench", "-s", "bench.mc_trials=10"], None, "bench.mc_trials"),
            (["bench", "-s", "bench.mc_trials=1000000000000"], None, "bench.mc_trials"),
            (["bench", "-s", "bench.r_max_m=inf"], None, "bench.r_max_m"),
            (["bench", "--seed=-1"], None, "mc.seed"),
            (["bench", "-s", "bench.r_min_m=nan"], None, "bench.r_min_m"),
            (["crosstalk-curve", "--grid", "nan"], None, "sweep.grid"),
            (["rank-modes", "--candidates=;"], None, "modes.candidates"),
            (["rank-modes", "--candidates=-2|1;1,x"], None, "modes.candidates"),
            (["monte-carlo", "--trials", "1000000000000"], None, "mc.trials"),
            (["ber-curve", "--monte-carlo", "--trials", "1000000000000", "--grid", "0.02"], None,
             "mc.trials"),
            (["optimize", "-s", "geometry.wavelength_m=1e-300"], None, "geometry.wavelength_m"),
            (["monte-carlo", "-s", "receiver.aperture_radius_m=1e308"], None,
             "receiver.aperture_radius_m"),
            (["crosstalk-curve", "--grid", "5", "-s", "receiver.aperture_radius_m=1e308"], None,
             "receiver.aperture_radius_m"),
            (["bench", "-s", "bench.grid_points=1001"], None, "bench.grid_points"),
            (["bench", "-s", "bench.repetitions=21"], None, "bench.repetitions"),
            # Each rule the library owns, refused by the CLI through the
            # library's own check, naming the key.
            (["bench", "-s", "bench.grid_points=0"], None,
             "bench.grid_points must be an integer in [1, 1000]"),
            (["bench", "-s", "bench.repetitions=2"], None,
             "bench.repetitions must be an integer in [3, 20]"),
            (["bench", "-s", "bench.r_min_m=0"], None,
             "need 0 < bench.r_min_m <= bench.r_max_m < inf"),
            (["bench", "-s", "bench.r_min_m=20.5"], None, "bench.r_min_m <= bench.r_max_m"),
            (["optimize", "--lo", "nan"], None, "need 0 < optimize.lo_m < optimize.hi_m < inf"),
            (["optimize", "--tol", "0.055"], None, "optimize.tol_m must be in ["),
            (["ber-curve", "--grid", "0.02", "-s", "quad.order=257"], None,
             "quad.order must be an integer in [16, 256]"),
            (["rank-modes", "-s", "quad.order=15"], None, "quad.order"),
            (["crosstalk-curve", "--grid", "5,-1"], None,
             "sweep.grid value must be finite and >= 0, got -1.0"),
            (["crosstalk-curve", "-s", "pointing.r_ch_m=inf"], None,
             "pointing.r_ch_m must be finite and >= 0, got inf"),
            (["rank-modes", "--candidates=-2|1;-1|1;-2|1"], None,
             "modes.candidates must list distinct mode sets"),
            (["ber-curve", "--grid", "0.02", "--candidates=-2|1;-2|1"], None,
             "modes.candidates must list distinct mode sets"),
            (["ber-curve", "--grid", "0.02", "-s", "pointing.sigma_theta_rad=1e-300"], None,
             "pointing.sigma_theta_rad"),
            (["rank-modes", "-s", "receiver.aperture_radius_m=2"], None,
             "receiver.aperture_radius_m"),
            (["crosstalk-curve", "--grid", "5", "-s", "pointing.sigma_theta_rad=",
              "-s", "pointing.r_ch_m=7"], None, "sweep.grid and pointing.r_ch_m"),
            (["monte-carlo"], "100000", "OAMLINK_WORKERS"),
            (["optimize", "--lo", "1e-300", "--hi", "1e-299", "--tol", "1e-301"], None,
             "optimize.lo_m"),
            (["optimize", "--lo", "0.01", "--hi", "1e300", "--tol", "0.001"], None,
             "optimize.hi_m"),
            # A repeated filter would count its branch twice.
            (["ber-curve", "--grid", "0.025", "-s", "modes.candidates=",
              "-s", "modes.filter=-2,1,1"], None, "modes.filter"),
            (["crosstalk-curve", "--grid", "5", "-s", "modes.filter=-2,1,1"], None,
             "modes.filter"),
            # The averaged BER needs exactly two streams; no set is evaluated.
            (["rank-modes", "--candidates=-2|1;-2|1|3"], None, "modes.candidates"),
            (["optimize", "-s", "modes.tx=-2,1,3"], None, "modes.tx"),
            (["bench", "-s", "modes.tx=-2,1,3"], None, "modes.tx"),
            (["ber-curve", "--grid", "0.025", "--candidates=-2|1|3"], None, "modes.candidates"),
            (["ber-curve", "--grid", "0.025", "-s", "modes.candidates=", "-s", "modes.tx=0"],
             None, "modes.tx"),
            (["optimize", "-s", "modes.tx=-4,-2,1,3", "-s", "modes.grouping=-4|-2|1,3"], None,
             "modes.grouping"),
            # Keys these runs read still refuse them (see TestUnreadKeys).
            (["ber-curve", "--grid", "0.02", "-s", "modes.candidates=", "-s", "modes.tx=1,1"],
             None, "modes.tx"),
            (["bench", "-s", "mc.seed=abc"], None, "mc.seed"),
            (["ber-curve", "--grid", "0.02", "--monte-carlo", "-s", "mc.seed=abc"], None,
             "mc.seed"),
            (["rank-modes", "-s", "quad.order=8"], None, "quad.order"),
            # The grid value, not only the aperture, takes the offsets past
            # the Bessel range, and so can the base jitter.
            (["ber-curve", "--axis", "sigma_theta", "--grid", "1e-5,1e-3"], None,
             "sweep.grid value for pointing.sigma_theta_rad=0.001"),
            (["monte-carlo", "-s", "pointing.sigma_theta_rad=1e-3"], None,
             "pointing.sigma_theta_rad=0.001"),
            # So can a crosstalk-curve radius or the bench's top radius: the
            # refusal names that key and the link keys beside the aperture.
            (["crosstalk-curve", "--grid", "1e5"], None,
             "sweep.grid value=100000.0, geometry.distance_m=1000000.0, geometry.w0_m=0.025"),
            (["crosstalk-curve", "-s", "pointing.r_ch_m=1e5"], None,
             "pointing.r_ch_m=100000.0, geometry.distance_m=1000000.0, geometry.w0_m=0.025"),
            (["bench", "-s", "bench.r_max_m=1e5"], None,
             "bench.r_max_m=100000.0, geometry.distance_m=1000000.0, geometry.w0_m=0.025"),
            # A listed method with a Bessel kernel is refused beside exact2d
            # or asymptotic.
            (["crosstalk-curve", "--grid", "5e4", "--method", "exact2d,radial-sum"], None,
             "sweep.grid value=50000.0, geometry.distance_m=1000000.0"),
            (["crosstalk-curve", "--grid", "5e4", "--method", "asymptotic,bessel-sum"], None,
             "sweep.grid value=50000.0, geometry.distance_m=1000000.0"),
            # On the w0 axis the grid value sets the waist the refusal names.
            (["ber-curve", "--grid", "0.02", "-s", "receiver.aperture_radius_m=1.5"], None,
             "receiver.aperture_radius_m 1.5 m takes Bessel arguments up to 1.46e+03 at offsets "
             "up to 240 m, past 1000 (at pointing.sigma_theta_rad=3e-05, geometry.distance_m="
             "1000000.0, sweep.grid value for geometry.w0_m=0.02, geometry.wavelength_m=1.55e-06)"),
            # A method listed twice would be evaluated, or timed, twice.
            (["bench", "--method", "bessel-sum,bessel-sum"], None,
             "duplicate methods in 'bessel-sum,bessel-sum'"),
            (["crosstalk-curve", "--grid", "5", "--method", "exact2d,EXACT2D"], None,
             "duplicate methods in 'exact2d,exact2d'"),
            (["monte-carlo", "-s", "modes.tx=-4,-2,1,3", "-s", "modes.grouping=-4,x|1,3"], None,
             "modes.grouping: bad mode set spec '-4,x|1,3'"),
            # A golden-section search whose tol is below the float spacing
            # never ends.
            (["optimize", "--tol", "1e-300"], None,
             "at least 2 ulps of optimize.hi_m or the search never ends"),
            (["optimize", "--tol", "1e-17"], None, "optimize.tol_m"),
            # Runs that would simulate past 10^9 trials in all.
            (["bench", "-s", "bench.mc_trials=1000000000"], None,
             "bench.repetitions x bench.mc_trials makes 5000000000 Monte Carlo draws"),
            (["bench", "--repetitions", "20", "-s", "bench.mc_trials=50000001"], None,
             "bench.repetitions x bench.mc_trials"),
            (["ber-curve", "--monte-carlo", "--trials", "1000000000", "--grid", "0.02"], None,
             "mc.trials x sweep.grid values x modes.candidates x method makes 4000000000"),
            (["ber-curve", "--monte-carlo", "--trials", "300000000", "--grid", "0.02,0.03",
              "--candidates=-2|1", "--method", "bessel-sum,radial-sum"], None,
             "mc.trials x sweep.grid values"),
            # Sets whose ML detection would not fit one chunk in memory.
            (["monte-carlo", "-s", "modes.tx=-5,-4,-3,-2,-1,1,2,3,4,5"], None,
             "modes.tx: 10 streams x 10 filters"),
            (["monte-carlo", "-s", "modes.tx=-5,-4,-3,-2,-1,1,2,3,4,5",
              "-s", "modes.grouping=-5,-4|-3|-2|-1|1|2|3|4|5"], None,
             "modes.grouping: 9 streams x 10 filters"),
        ],
    )
    def test_bad_input_exits_config_error(self, args, env, key, tmp_path, monkeypatch, capsys):
        # Each is refused before any average, timing or trial runs, so no
        # thread starts.
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("sweep.crosstalk", "sweep.average_ber", "montecarlo._run_chunk",
                     "cli.average_ber", "cli.crosstalk_matrix"):
            monkeypatch.setattr(f"oamlink.{name}", refuse)
        if env is not None:
            monkeypatch.setenv("OAMLINK_WORKERS", env)
        assert main(args + ["-o", str(tmp_path / "o.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["ber-curve", "--grid", "0.02", "--method", "bessel-sum,exact2d"],
            ["monte-carlo", "--method", "exact2d"],
            ["optimize", "--method", "exact2d"],
            ["rank-modes", "--method", "exact2d"],
        ],
    )
    def test_exact2d_refused_for_jitter_averaged_commands(self, args, tmp_path, capsys):
        # One exact2d average takes minutes; the refusal comes before any.
        assert main(args + ["-o", str(tmp_path / "o.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: method exact2d" in err and "radial-sum" in err
        assert not (tmp_path / "o.csv").exists()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("oamlink ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["crosstalk-curve", "--grid", "5", "-o", "out.csv"],
            ["ber-curve", "--method", "radial-sum", "-s", "quad.order=48", "-s", "mc.seed=2",
             "--axis", "w0", "--grid", "0.02", "--candidates=-2|1", "--monte-carlo",
             "-o", "out.csv"],
            ["rank-modes", "-c", "run.cfg", "--candidates=-2|1;-2|2"],
        ],
    )
    def test_command_parser_alone_gives_the_full_parse(self, argv):
        parser = build_parser()
        full = vars(parser.parse_args(argv))
        del full["command_parsers"]
        assert vars(_parse_args(parser, argv)) == full

    def test_argument_the_command_lacks_keeps_the_top_level_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ber-curve", "--bogus"])
        assert exc.value.code == 2
        assert "oamlink: error: unrecognized arguments: --bogus" in capsys.readouterr().err


BER = ["-s", "sweep.grid=0.02", "-s", "quad.order=48"]
OPT = ["-s", "quad.order=48", "-s", "optimize.lo_m=0.008", "-s", "optimize.hi_m=0.03"]
BENCH = ["-s", "bench.grid_points=2", "-s", "bench.r_min_m=5", "-s", "bench.r_max_m=10",
         "-s", "bench.mc_trials=1000"]


class TestFlagKeys:
    # Every dedicated flag with the one config key it overrides; -o is part
    # of every run, so each case also checks output.path.
    CASES = [
        (["crosstalk-curve", "--grid", "5"], "sweep.grid", "5"),
        (["crosstalk-curve", "--method", "radial-sum", "-s", "sweep.grid=5"], "method", "radial-sum"),
        (["monte-carlo", "--seed", "7", "-s", "mc.trials=1000", "-s", "mc.allow_degraded=true"],
         "mc.seed", "7"),
        (["ber-curve", "--axis", "sigma_theta", "-s", "sweep.grid=2e-5", "-s",
          "quad.order=48", "-s", "modes.candidates=-2|1"], "sweep.axis", "sigma_theta"),
        (["ber-curve", "--grid", "0.03", "-s", "quad.order=48", "-s", "modes.candidates=-2|1"],
         "sweep.grid", "0.03"),
        (["ber-curve", "--candidates=-1|1", *BER], "modes.candidates", "-1|1"),
        (["ber-curve", "--monte-carlo", "-s", "mc.trials=1000", "-s", "mc.allow_degraded=true",
          "-s", "modes.candidates=-2|1", *BER], "ber.with_mc", "true"),
        (["ber-curve", "--trials", "2000", "-s", "modes.candidates=-2|1", *BER],
         "mc.trials", "2000"),
        (["monte-carlo", "--trials", "1000", "-s", "mc.allow_degraded=true"], "mc.trials", "1000"),
        (["monte-carlo", "--allow-degraded", "-s", "mc.trials=1000"], "mc.allow_degraded", "true"),
        (["optimize", "--lo", "0.009", "-s", "optimize.tol_m=0.002", *OPT], "optimize.lo_m", "0.009"),
        (["optimize", "--hi", "0.02", "-s", "optimize.tol_m=0.002", *OPT], "optimize.hi_m", "0.02"),
        (["optimize", "--tol", "0.003", *OPT], "optimize.tol_m", "0.003"),
        (["rank-modes", "--candidates=-2|1;-1|1", "-s", "quad.order=48"],
         "modes.candidates", "-2|1;-1|1"),
        (["bench", "--repetitions", "4", *BENCH], "bench.repetitions", "4"),
    ]

    @pytest.mark.parametrize("argv, key, value", CASES)
    def test_flag_sets_exactly_its_key(self, argv, key, value, tmp_path):
        out = tmp_path / "out"
        assert main(argv + ["-o", str(out)]) == EXIT_OK
        manifest = (tmp_path / "out.manifest").read_text(encoding="utf-8")
        echoed = dict(
            line[len("config."):].split(" = ", 1)
            for line in manifest.splitlines()
            if line.startswith("config.")
        )
        expected = dict(DEFAULTS)
        expected.update(argv[i + 1].split("=", 1) for i, arg in enumerate(argv) if arg == "-s")
        expected.update({"output.path": str(out), key: value})
        assert echoed == expected


class TestUnreadKeys:
    # Each command parses only the keys it evaluates: a bad value of a key
    # it never reads changes neither its exit code nor its output bytes.
    RUNS = [
        (["rank-modes", "--candidates=-2|1;-1|1", "-s", "quad.order=16"], "modes.tx=1,1"),
        (["ber-curve", "--grid", "0.02", "--candidates=-2|1", "-s", "quad.order=16"],
         "modes.tx=1,1"),
        (["rank-modes", "--candidates=-2|1;-1|1", "-s", "quad.order=16"], "mc.seed=abc"),
        (["optimize", "-s", "quad.order=16"], "mc.seed=abc"),
        (["ber-curve", "--grid", "0.02", "--candidates=-2|1", "-s", "quad.order=16"],
         "mc.seed=abc"),
        (["monte-carlo", "--trials", "1000", "--allow-degraded"], "quad.order=8"),
        # The jitter commands read pointing.sigma_theta_rad alone ...
        (["ber-curve", "--grid", "0.02", "--candidates=-2|1", "-s", "quad.order=16"],
         "pointing.r_ch_m=5"),
        (["rank-modes", "--candidates=-2|1;-1|1", "-s", "quad.order=16"], "pointing.r_ch_m=5"),
        (["optimize", "-s", "quad.order=16"], "pointing.r_ch_m=5"),
        (["monte-carlo", "--trials", "1000", "--allow-degraded"], "pointing.r_ch_m=5"),
        (["bench", "--repetitions", "3", *BENCH], "pointing.r_ch_m=5"),
        # ... and crosstalk-curve its offset radii alone, so the shipped
        # sigma_theta cannot refuse it either.
        (["crosstalk-curve", "-s", "pointing.r_ch_m=5"], "pointing.sigma_theta_rad=abc"),
    ]

    @pytest.mark.parametrize("argv, unread", RUNS)
    def test_unread_key_cannot_refuse(self, argv, unread, tmp_path):
        clean, dirty = tmp_path / "clean", tmp_path / "dirty"
        code = main(argv + ["-o", str(clean)])
        assert main(argv + ["-s", unread, "-o", str(dirty)]) == code
        assert dirty.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("command", ["crosstalk-curve", "optimize", "rank-modes"])
    def test_seed_flag_only_where_a_seed_is_read(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "7", "-o", "unused.csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


class TestCrosstalkCurveCommand:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "xt.csv"
        code = main(
            [
                "crosstalk-curve",
                "--grid",
                "5,10",
                "--method",
                "bessel-sum,exact2d",
                "-o",
                str(out),
            ]
        )
        assert code == EXIT_OK
        schema, header, rows = read_csv_file(out)
        assert schema.startswith("oamlink/crosstalk-curve v1")
        assert header == [
            "r_ch_m", "ell_n", "ell_j", "method", "C_watts", "C_dBm", "status",
        ]
        # 2 radii x 4 mode pairs x 2 methods, method innermost.
        assert len(rows) == 16
        assert [r[3] for r in rows[:4]] == [
            "bessel-sum", "exact2d", "bessel-sum", "exact2d",
        ]
        for r in rows:
            c = float(r[4])
            assert c > 0
            assert float(r[5]) == pytest.approx(10 * math.log10(c * 1000), rel=1e-12)
            assert r[6] == "ok"
        manifest = (tmp_path / "xt.csv.manifest").read_text(encoding="utf-8")
        assert "manifest.rows = 16" in manifest
        assert "manifest.error_rows = 0" in manifest
        assert "config.sweep.grid = 5,10" in manifest

    def test_error_rows_exit_nonconverged(self, tmp_path):
        out = tmp_path / "xt.csv"
        code = main(
            ["crosstalk-curve", "--grid", "0", "--method", "asymptotic",
             "-o", str(out)]
        )
        assert code == EXIT_NONCONVERGED
        _, _, rows = read_csv_file(out)
        assert all(r[6].startswith("error: ValueError") for r in rows)
        assert all(r[4] == "nan" for r in rows)

    @pytest.mark.parametrize("method", ["exact2d", "asymptotic"])
    def test_method_without_a_bessel_kernel_runs_past_the_bessel_range(self, method, tmp_path):
        # exact2d and asymptotic evaluate no Bessel function, so only a
        # listed Bessel method is held to the range; this radius takes
        # bessel-sum past it.
        out = tmp_path / "xt.csv"
        assert main(["crosstalk-curve", "--grid", "5e4", "--method", method,
                     "-o", str(out)]) == EXIT_OK
        _, _, rows = read_csv_file(out)
        assert len(rows) == 4 and all(r[3] == method and r[6] == "ok" for r in rows)
        assert all(float(r[4]) >= 0 for r in rows)

    def test_needs_radii(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert main(["crosstalk-curve", "-o", out]) == EXIT_CONFIG
        assert main(["crosstalk-curve", "--grid", "nan", "-o", out]) == EXIT_CONFIG
        assert main(["crosstalk-curve", "--grid=-1,2", "-o", out]) == EXIT_CONFIG

    def test_warning_folded_into_status(self, tmp_path):
        # Below the validity floor the Bessel-based forms still deliver
        # values and say so in the status column.
        out = tmp_path / "xt.csv"
        code = main(["crosstalk-curve", "--grid", "0.5", "--method", "bessel-sum,asymptotic",
                     "-o", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv_file(out)
        assert sorted({r[3] for r in rows}) == ["asymptotic", "bessel-sum"] and len(rows) == 8
        assert all(r[6].startswith("warning:") and "validity" in r[6] for r in rows)
        assert not any(math.isnan(float(r[4])) for r in rows)

    def test_error_cell_does_not_abort(self, tmp_path):
        # The large-offset form rejects a zero offset; its cells report the
        # failure while the reference integral still produces values.
        out = tmp_path / "xt.csv"
        code = main(["crosstalk-curve", "--grid", "0", "--method", "exact2d,asymptotic",
                     "-o", str(out)])
        assert code == EXIT_NONCONVERGED
        _, _, rows = read_csv_file(out)
        exact = [r for r in rows if r[3] == "exact2d"]
        asym = [r for r in rows if r[3] == "asymptotic"]
        assert len(exact) == len(asym) == 4
        assert not any(r[6].startswith("error") or math.isnan(float(r[4])) for r in exact)
        assert all(r[6].startswith("error: ValueError") and r[4] == "nan" for r in asym)

    def test_unsettled_reference_integral_warns_in_status(self, tmp_path, monkeypatch):
        # No grid doubling settles at a zero tolerance: every exact2d cell
        # carries the warning text the benchmark checker looks for.
        monkeypatch.setattr(oamlink.crosstalk, "_EXACT_REL_TOL", 0.0)
        out = tmp_path / "xt.csv"
        code = main(["crosstalk-curve", "--method", "exact2d", "--grid", "8",
                     "-s", "pointing.sigma_theta_rad=", "-o", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv_file(out)
        assert len(rows) == 4
        assert {r[6] for r in rows} == {
            "warning: crosstalk integral did not settle: last grid doubling changed the "
            "value by 0.00%"
        }

    def test_single_point_from_pointing_offset(self, tmp_path):
        out = tmp_path / "xt.csv"
        code = main(
            [
                "crosstalk-curve",
                "-s",
                "pointing.r_ch_m=8",
                "-s",
                "pointing.sigma_theta_rad=",
                "-o",
                str(out),
            ]
        )
        assert code == EXIT_OK
        _, _, rows = read_csv_file(out)
        assert len(rows) == 4
        assert all(r[0] == "8.0" for r in rows)


class TestBerCurveCommand:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "ber.csv"
        code = main(
            [
                "ber-curve",
                "--axis",
                "w0",
                "--grid",
                "0.02,0.025",
                "--candidates=-2|1",
                "-s",
                "quad.order=48",
                "-o",
                str(out),
            ]
        )
        assert code == EXIT_OK
        schema, header, rows = read_csv_file(out)
        assert schema.startswith("oamlink/ber-curve v1")
        assert header == [
            "axis_value", "mode_set_id", "method", "ber_avg_raw",
            "ber_avg_clamped", "status",
        ]
        assert [r[0] for r in rows] == ["0.02", "0.025"]
        assert all(r[1] == "-2|1" for r in rows)
        assert all(0 < float(r[3]) < 0.5 for r in rows)

    def test_tiny_jitter_row_carries_warning(self, tmp_path):
        # Every offset of this average lies below the Bessel methods' 1 m
        # validity floor; the value is written and the status says so.
        out = tmp_path / "ber.csv"
        args = ["ber-curve", "--grid", "0.02", "--candidates=-2|1", "--method",
                "bessel-sum,radial-sum", "-s", "pointing.sigma_theta_rad=1e-12"]
        assert main(args + ["-o", str(out)]) == EXIT_OK
        _, _, rows = read_csv_file(out)
        bessel, radial = rows
        assert bessel[2] == "bessel-sum" and 0.0 <= float(bessel[3]) <= 1.5
        assert bessel[5].startswith("warning:") and "validity floor" in bessel[5]
        assert radial[2] == "radial-sum" and radial[5] == "ok"

    def test_degraded_simulation_row_names_the_key(self, tmp_path):
        # At 1 urad of jitter most draws fall below the bessel-sum validity
        # floor: the simulation is refused, its cells are nan and the status
        # names the key that accepts such draws.
        out = tmp_path / "ber.csv"
        code = main(["ber-curve", "--grid", "0.02", "--candidates=-2|1", "--monte-carlo",
                     "--trials", "1000", "-s", "pointing.sigma_theta_rad=1e-6",
                     "-o", str(out)])
        assert code == EXIT_NONCONVERGED
        _, header, rows = read_csv_file(out)
        assert header[5:] == ["ber_mc", "ci95", "status"]
        ((*_, ber_mc, ci95, status),) = rows
        assert ber_mc == ci95 == "nan"
        assert status.startswith("error: DegradedChannelError: ")
        assert "mc.allow_degraded" in status

    def test_rejects_offset_axis_and_bad_grid(self, tmp_path, capsys):
        out = str(tmp_path / "ber.csv")
        base = ["ber-curve", "--candidates=-2|1", "-o", out]
        assert main(base + ["--axis", "r_ch", "--grid", "1,2"]) == EXIT_CONFIG
        assert main(base + ["--axis", "w0", "--grid", "0.03,0.02"]) == EXIT_CONFIG
        assert main(base + ["--axis", "w0"]) == EXIT_CONFIG
        # Each bad axis or grid value is refused, naming the key, before
        # anything is evaluated.
        for args, key in (
            (["--grid", "nan"], "sweep.grid"),
            (["--grid=-0.01,0.02"], "sweep.grid"),
            (["--axis", "sigma_theta", "--grid", "0,1e-5"], "sweep.grid"),
            (["--axis", "foo", "--grid", "0.02"], "sweep.axis"),
        ):
            capsys.readouterr()
            assert main(base + args) == EXIT_CONFIG, args
            assert key in capsys.readouterr().err, args
        assert not (tmp_path / "ber.csv").exists()

    def test_axis_parse(self, tmp_path, monkeypatch, capsys):
        # Axis names are matched stripped and case-insensitively, and the
        # schema line spells the axis as the schema does.
        monkeypatch.setattr("oamlink.cli.average_ber",
                            lambda geom, rx, modes, sigma_theta, method, q: BerResult(0.1))
        out = tmp_path / "ber.csv"
        base = ["ber-curve", "--candidates=-2|1", "-o", str(out), "--axis"]
        for spelling, axis, value in ((" W0 ", "w0", "0.02"), ("sigma_theta", "sigma_theta",
                                      "2e-5"), ("z", "Z", "5e5")):
            assert main(base + [spelling, "--grid", value]) == EXIT_OK, spelling
            assert f"axis={axis} (SI units)" in read_csv_file(out)[0]
        # A waist is not spelled "waist", and a fixed offset is not an axis
        # of the jitter average.
        capsys.readouterr()
        for name in ("waist", "r_ch"):
            assert main(base + [name, "--grid", "1"]) == EXIT_CONFIG
            assert (f"sweep.axis: unknown sweep axis {name!r}; expected one of: w0, "
                    "sigma_theta, Z") in capsys.readouterr().err

    def test_base_value_the_sweep_replaces_is_not_checked(self, tmp_path):
        # A base jitter of 1 mrad would take the Bessel arguments past their
        # guard, but the sweep replaces it: the rows are those of a base
        # equal to the grid value.
        rows = []
        for base in ("1e-3", "1e-5"):
            out = tmp_path / f"ber-{base}.csv"
            assert main(["ber-curve", "--method", "bessel-sum", "--candidates=-2|1",
                         "-s", "quad.order=48", "-s", f"pointing.sigma_theta_rad={base}",
                         "--axis", "sigma_theta", "--grid", "1e-5", "-o", str(out)]) == EXIT_OK
            rows.append(read_csv_file(out)[2])
        assert rows[0] == rows[1] and len(rows[0]) == 1

    @pytest.mark.parametrize("axis, value, expected", [
        ("w0", "0.015", (0.015, 1.0e6, 3.0e-5, 30.0)),
        ("Z", "5e5", (0.025, 5.0e5, 3.0e-5, 15.0)),
        ("sigma_theta", "2e-5", (0.025, 1.0e6, 2.0e-5, 20.0)),
    ])
    def test_each_axis_sets_its_parameter(self, axis, value, expected, tmp_path, monkeypatch):
        # The grid value replaces its one parameter, the others keep their
        # base values, and the jitter's offset scale follows the distance:
        # (waist, distance, sigma_theta, Rayleigh scale) of each average.
        seen = []

        def record(geom, rx, modes, sigma_theta, method, quad_order):
            seen.append((geom.waist, geom.distance, sigma_theta, geom.rayleigh_scale(sigma_theta)))
            return BerResult(0.1)

        monkeypatch.setattr("oamlink.cli.average_ber", record)
        assert main(["ber-curve", "--axis", axis, "--grid", value, "--candidates=-2|1",
                     "-o", str(tmp_path / "ber.csv")]) == EXIT_OK
        assert seen == [pytest.approx(expected)]

    def test_monte_carlo_methods_share_one_trial_config(self, tmp_path, monkeypatch):
        # The run settings are built once; each method's row simulates with
        # them and that method, and ber_mc is that simulation's estimate.
        built, calls = [], []

        def counting_config(*args, **kwargs):
            built.append(TrialConfig(*args, **kwargs))
            return built[-1]

        def record(*args):
            calls.append(args)
            return simulate_ber(*args)

        monkeypatch.setattr("oamlink.cli.TrialConfig", counting_config)
        monkeypatch.setattr("oamlink.cli.simulate_ber", record)
        out = tmp_path / "ber.csv"
        assert main(["ber-curve", "--grid", "0.02,0.025", "--candidates=-2|1", "--monte-carlo",
                     "--trials", "2000", "--method", "bessel-sum,radial-sum",
                     "-s", "quad.order=48", "-o", str(out)]) == EXIT_OK
        rows = read_csv_file(out)[2]
        assert len(built) == 1 and (built[0].trials, built[0].seed) == (2000, 12345)
        assert [row[2] for row in rows] == ["bessel-sum", "radial-sum"] * 2
        assert len(calls) == len(rows)
        for row, (geom, rx, modes, sigma_theta, cfg, method) in zip(rows, calls):
            assert cfg is built[0] and method is Method.parse(row[2])
            want = simulate_ber(geom, rx, modes, sigma_theta, TrialConfig(2000, 12345), method)
            assert float(row[5]) == want.ber_hat and float(row[6]) == want.ci95_halfwidth


class TestMonteCarloCommand:
    ARGS = [
        "monte-carlo",
        "--trials",
        "20000",
        "--method",
        "bessel-sum",
    ]

    def test_happy_path_and_reproducible_output(self, tmp_path, monkeypatch):
        out1 = tmp_path / "mc1.csv"
        assert main(self.ARGS + ["-o", str(out1)]) == EXIT_OK
        schema, header, rows = read_csv_file(out1)
        assert schema.startswith("oamlink/monte-carlo v1")
        assert header[:5] == ["trials", "errors", "bit_errors", "ber_mc", "ci95"]
        (row,) = rows
        assert row[0] == "20000"
        assert int(row[1]) >= 0
        assert float(row[3]) == pytest.approx(int(row[1]) / 20000)

        # Same run under a different worker count must not move a byte.
        monkeypatch.setenv("OAMLINK_WORKERS", "3")
        out2 = tmp_path / "mc2.csv"
        assert main(self.ARGS + ["-o", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("tx", ["0", "-2,1,3"])
    def test_any_stream_count_is_simulated(self, tx, tmp_path):
        # Unlike the averaged BER, the simulator takes any number of streams.
        out = tmp_path / "mc.csv"
        assert main(self.ARGS + ["-s", f"modes.tx={tx}", "-o", str(out)]) == EXIT_OK
        ((trials, errors, *_),) = read_csv_file(out)[2]
        assert trials == "20000" and int(errors) > 0

    def test_manifest_reruns_byte_identical(self, tmp_path):
        out1 = tmp_path / "mc1.csv"
        assert main(self.ARGS + ["-o", str(out1)]) == EXIT_OK
        manifest = tmp_path / "mc1.csv.manifest"
        out3 = tmp_path / "mc3.csv"
        code = main(["monte-carlo", "-c", str(manifest), "-o", str(out3)])
        assert code == EXIT_OK
        assert out3.read_bytes() == out1.read_bytes()

    def test_degraded_abort(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        args = self.ARGS + ["-s", "pointing.sigma_theta_rad=3e-06", "-o", str(out)]
        assert main(args) == EXIT_NONCONVERGED
        assert "below the" in capsys.readouterr().err
        assert not out.exists()

    def test_manifests_record_the_worker_layout(self, tmp_path, monkeypatch):
        # 70,000 trials make two RNG chunks, one per worker thread; every
        # command writes the layout to the manifest and nowhere else. bench
        # records the worker cap that sizes both its exact2d and its Monte
        # Carlo pool, and no chunk count.
        monkeypatch.setenv("OAMLINK_WORKERS", "2")
        runs = {
            "monte-carlo": (["monte-carlo", "--trials", "70000"], "2"),
            "ber-curve": (["ber-curve", "--grid", "0.025", "--candidates=-2|1",
                           "--monte-carlo", "--trials", "70000"], "2"),
            "bench": (["bench", *BENCH], None),
        }
        for name, (args, chunks) in runs.items():
            out = tmp_path / f"{name}.csv"
            assert main(args + ["-o", str(out)]) == EXIT_OK
            lines = Path(f"{out}.manifest").read_text(encoding="utf-8").splitlines()
            facts = dict(line.split(" = ", 1) for line in lines)
            assert (facts["manifest.workers"], facts.get("manifest.chunks")) == ("2", chunks), name
            assert not {"workers", "chunks"} & set(read_csv_file(out)[1]), name


class TestOptimizeCommand:
    def test_interior_optimum(self, tmp_path):
        out = tmp_path / "opt.txt"
        code = main(
            [
                "optimize",
                "--lo",
                "0.008",
                "--hi",
                "0.03",
                "--tol",
                "0.002",
                "-s",
                "quad.order=48",
                "-o",
                str(out),
            ]
        )
        assert code == EXIT_OK
        report = dict(
            line.split(" = ")
            for line in out.read_text(encoding="utf-8").splitlines()
        )
        assert report["optimize.boundary"] == "false"
        assert 0.009 < float(report["optimize.w0_opt_m"]) < 0.016
        assert float(report["optimize.bracket_lo_m"]) < float(
            report["optimize.w0_opt_m"]
        )
        assert float(report["optimize.bracket_mid_ber"]) <= float(
            report["optimize.bracket_lo_ber"]
        )

    def test_boundary_exit_code(self, tmp_path):
        out = tmp_path / "opt.txt"
        code = main(
            [
                "optimize",
                "--lo",
                "0.02",
                "--hi",
                "0.03",
                "--tol",
                "0.002",
                "-s",
                "quad.order=48",
                "-o",
                str(out),
            ]
        )
        assert code == EXIT_BOUNDARY
        assert "optimize.boundary = true" in out.read_text(encoding="utf-8")

    def test_warnings_go_to_manifest_status(self, tmp_path):
        # At this order the Gauss-Kronrod self-check fails on some waists:
        # the warnings land in the manifest's status line, not on stderr,
        # and the report itself carries no status.
        out = tmp_path / "opt.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["optimize", "-s", "quad.order=32", "-o", str(out)]) == EXIT_OK
        assert caught == []
        manifest = (tmp_path / "opt.txt.manifest").read_text(encoding="utf-8")
        assert "manifest.status = warning: pointing average did not settle" in manifest
        assert "status" not in out.read_text(encoding="utf-8")

        clean = tmp_path / "clean.txt"
        assert main(["optimize", "-s", "quad.order=64", "-o", str(clean)]) == EXIT_OK
        assert "manifest.status = ok\n" in (tmp_path / "clean.txt.manifest").read_text(
            encoding="utf-8")

    def test_repeated_warnings_fold_into_one_short_status(self, tmp_path):
        # Most of the search's averages fail the self-check, each by its own
        # amount: the status names the worst change and counts the rest.
        config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
        out = tmp_path / "opt.txt"
        args = ["optimize", "-c", str(config), "-s", "quad.order=32", "-o", str(out)]
        assert main(args) == EXIT_OK
        manifest = (tmp_path / "opt.txt.manifest").read_text(encoding="utf-8")
        (status,) = [line for line in manifest.splitlines()
                     if line.startswith("manifest.status = ")]
        assert len(status) < 200
        assert status.startswith("manifest.status = warning: pointing average did not settle")
        assert status.count("did not settle") == 1 and "(worst of " in status

    @pytest.mark.parametrize("waist", ["-1", "1e-300"])
    def test_base_waist_the_search_replaces_is_not_checked(self, waist, tmp_path):
        # The search sets the waist itself, so a base waist that is no
        # valid waist changes nothing in the report.
        args = ["optimize", "-s", "quad.order=48", "-o"]
        assert main(args + [str(tmp_path / "base.txt")]) == EXIT_OK
        replaced = tmp_path / "replaced.txt"
        assert main(args + [str(replaced), "-s", f"geometry.w0_m={waist}"]) == EXIT_OK
        assert replaced.read_bytes() == (tmp_path / "base.txt").read_bytes()

    def test_least_tol_runs_and_one_float_less_is_refused(self, tmp_path, monkeypatch):
        # At TOL_ULPS ulps of optimize.hi_m the search still ends (here on a
        # closed-form objective); the next float down is refused.
        monkeypatch.setattr("oamlink.sweep.average_ber",
                            lambda geom, *args: BerResult(averaged=(geom.waist - 0.02) ** 2))
        least = TOL_ULPS * math.ulp(0.06)
        args = ["optimize", "--hi", "0.06", "-o", str(tmp_path / "opt.txt")]
        assert main(args + ["--tol", repr(least)]) == EXIT_OK
        assert f"optimize.tol_m = {least!r}\n" in (tmp_path / "opt.txt").read_text()
        assert main(args + ["--tol", repr(math.nextafter(least, 0))]) == EXIT_CONFIG

    def test_bad_bounds(self, tmp_path):
        args = ["optimize", "--lo", "0.03", "--hi", "0.01", "-o",
                str(tmp_path / "o.txt")]
        assert main(args) == EXIT_CONFIG


class TestRankModesCommand:
    def test_ranking_csv(self, tmp_path):
        out = tmp_path / "rank.csv"
        code = main(
            [
                "rank-modes",
                "--candidates=-2|1;-1|1",
                "--method",
                "radial-sum",
                "-s",
                "quad.order=48",
                "-o",
                str(out),
            ]
        )
        assert code == EXIT_OK
        schema, header, rows = read_csv_file(out)
        assert schema.startswith("oamlink/rank-modes v1")
        assert header == ["rank", "mode_set_id", "ber_avg", "method", "converged",
                          "status"]
        assert [r[0] for r in rows] == ["1", "2"]
        assert {r[1] for r in rows} == {"-2|1", "-1|1"}
        bers = [float(r[2]) for r in rows]
        assert bers == sorted(bers)

    def test_status_folds_warnings_as_ber_curve_does(self, tmp_path):
        # Every offset of this average lies below the Bessel methods' 1 m
        # validity floor: both commands write the same warning status.
        link = ["--candidates=-2|1", "-s", "pointing.sigma_theta_rad=1e-12"]
        rank, ber = tmp_path / "rank.csv", tmp_path / "ber.csv"
        assert main(["rank-modes", *link, "-o", str(rank)]) == EXIT_OK
        assert main(["ber-curve", *link, "--grid", DEFAULTS["geometry.w0_m"],
                     "-o", str(ber)]) == EXIT_OK
        (rank_row,) = read_csv_file(rank)[2]
        (ber_row,) = read_csv_file(ber)[2]
        assert rank_row[2] == ber_row[3]
        assert rank_row[5] == ber_row[5]
        assert rank_row[5].startswith("warning:") and "validity floor" in rank_row[5]

    def test_asymptotic_is_not_held_to_the_bessel_range(self, tmp_path):
        # This aperture takes the Bessel methods past their range; asymptotic
        # evaluates no Bessel function, so its ranking runs and settles.
        out = tmp_path / "rank.csv"
        assert main(["rank-modes", "--method", "asymptotic",
                     "-s", "receiver.aperture_radius_m=1.5", "-o", str(out)]) == EXIT_OK
        rows = read_csv_file(out)[2]
        assert len(rows) == 4 and all(r[3:5] == ["asymptotic", "true"] for r in rows)

    def test_duplicate_candidates(self, tmp_path):
        args = ["rank-modes", "--candidates=-2|1;-2|1", "-o",
                str(tmp_path / "r.csv")]
        assert main(args) == EXIT_CONFIG

    def test_empty_candidates(self, tmp_path):
        args = ["rank-modes", "--candidates=", "-o", str(tmp_path / "r.csv")]
        assert main(args) == EXIT_CONFIG


class TestBenchCommand:
    SETTINGS = [
        "-s", "bench.grid_points=2",
        "-s", "bench.r_min_m=5",
        "-s", "bench.r_max_m=10",
        "-s", "bench.repetitions=3",
        "-s", "bench.mc_trials=1000",
    ]

    def test_csv_is_timing_free_and_reproducible(self, tmp_path):
        out1 = tmp_path / "bench1.csv"
        assert main(["bench", "-o", str(out1)] + self.SETTINGS) == EXIT_OK
        schema, header, rows = read_csv_file(out1)
        assert schema.startswith("oamlink/bench v1")
        assert header == ["method", "role", "grid_size", "repetitions", "mc_trials"]
        # The bench times exact2d first when the method list lacks it.
        assert [r[0] for r in rows] == [
            "exact2d", "bessel-sum", "monte-carlo", "quadrature-average",
        ]
        out2 = tmp_path / "bench2.csv"
        assert main(["bench", "-o", str(out2)] + self.SETTINGS) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        manifest = (tmp_path / "bench1.csv.manifest").read_text(encoding="utf-8")
        assert "manifest.median_s.exact2d = " in manifest
        assert "manifest.speedup.bessel-sum = " in manifest
        assert "manifest.mc_over_analytic = " in manifest

    def test_accuracy_warnings_stay_off_stderr(self, tmp_path, capsys):
        # At quadrature order 16 the timed average fails its self-check;
        # bench suppresses accuracy warnings inside the timed region, so
        # nothing reaches stderr.
        args = ["bench", "-s", "quad.order=16", "-o", str(tmp_path / "b.csv")] + self.SETTINGS
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == EXIT_OK
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""

    def test_one_radius_span_runs(self, tmp_path):
        # r_min == r_max is a span of one radius, timed like any other.
        out = tmp_path / "b.csv"
        settings = ["-s", "bench.grid_points=1", "-s", "bench.r_min_m=5", "-s", "bench.r_max_m=5",
                    "-s", "bench.repetitions=3", "-s", "bench.mc_trials=1000"]
        assert main(["bench", "-o", str(out)] + settings) == EXIT_OK
        _, _, rows = read_csv_file(out)
        assert [r[:3] for r in rows[:2]] == [["exact2d", "reference", "1"],
                                              ["bessel-sum", "candidate", "1"]]

    def test_bad_bench_range(self, tmp_path):
        args = ["bench", "-o", str(tmp_path / "b.csv"), "-s", "bench.r_min_m=30"]
        assert main(args) == EXIT_CONFIG


# Values no key may take without a clean exit: non-finite, negative, zero,
# empty, huge, malformed numbers and malformed or out-of-guard mode specs.
HOSTILE_VALUES = [
    "nan", "inf", "-inf", "-1", "-0.5", "0", "", "0.5", "1e308", "1000000000000",
    "abc", "1,,2", "|", ";", "-2|", "-2|1|", "1;2", "1,1", "17", "-2|1;-2|1",
]
# Small settings under every run, so whatever is accepted ends in well under
# a second; the bench sizes are never overridden.
TINY = {"quad.order": "16", "mc.trials": "1000", "modes.candidates": "-2|1;-1|1",
        "bench.r_min_m": "5", "bench.r_max_m": "10"}
BENCH_SIZES = {"bench.grid_points": "2", "bench.repetitions": "3", "bench.mc_trials": "1000"}
GRIDS = {"crosstalk-curve": "5", "ber-curve": "0.02"}
COMMANDS = ["crosstalk-curve", "ber-curve", "monte-carlo", "optimize", "rank-modes", "bench"]


class TestCliContract:
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(COMMANDS),
        overrides=st.dictionaries(
            st.sampled_from(sorted(set(DEFAULTS) - set(BENCH_SIZES) - {"output.path"})),
            st.sampled_from(HOSTILE_VALUES),
            min_size=1,
            max_size=3,
        ),
    )
    def test_hostile_overrides_exit_cleanly(self, command, overrides, tmp_path, monkeypatch,
                                            capsys):
        # No exception may escape main, every exit code is a documented one,
        # and a configuration error names the key at fault. One worker: the
        # worker-count parse path is covered without starting threads.
        monkeypatch.setenv("OAMLINK_WORKERS", "1")
        raw = {**TINY, **BENCH_SIZES, "sweep.grid": GRIDS.get(command, ""), **overrides}
        argv = [command, "-o", str(tmp_path / "out")]
        for key, value in raw.items():
            argv += ["-s", f"{key}={value}"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NONCONVERGED, EXIT_BOUNDARY), err
        if code == EXIT_CONFIG:
            assert any(key in err for key in DEFAULTS), err

    @pytest.mark.parametrize("args", [
        ["rank-modes", "--candidates=-2|1", "-s", "pointing.sigma_theta_rad=1e-12"],
        ["ber-curve", "--grid", "0.02", "--candidates=-2|1", "-s", "pointing.sigma_theta_rad=1e-12"],
        ["crosstalk-curve", "--grid", "0.5"],
    ], ids=["rank-modes", "ber-curve", "crosstalk-curve"])
    def test_checks_below_the_floor_go_to_status_not_stderr(self, args, tmp_path, capsys):
        # The library warns each failed check; the command writes it in the
        # status cells, and no warning leaves main.
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args + ["-o", str(out)]) == EXIT_OK
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        rows = read_csv_file(out)[2]
        assert rows and all("validity floor" in row[-1] for row in rows)
