"""Command-line entry point: `cransim uplink|downlink|sweep [options]`."""

import argparse
import sys

from .errors import ConfigurationError, DomainError
from .harness import (MODE_MT, MODE_P2P, ExperimentConfig, PRESETS,
                      alpha_sweep, default_out_dir, run_experiment,
                      write_report, write_sweep)


def _add_common(sub):
    sub.add_argument("--config", help="YAML config file mirroring the "
                     "experiment settings")
    sub.add_argument("--preset", choices=sorted(PRESETS),
                     help="named base configuration")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--drops", type=int)
    sub.add_argument("--slots", type=int)
    sub.add_argument("--mode", choices=[MODE_P2P, MODE_MT, "both"])
    sub.add_argument("--jobs", type=int)
    sub.add_argument("--out", default=None, help="output directory "
                     "(default: $CRANSIM_OUT or ./results)")
    sub.add_argument("--k-ms", type=int, dest="k_ms")
    sub.add_argument("--n-pico", type=int, dest="n_pico")
    sub.add_argument("--c-macro", type=float, dest="c_macro")
    sub.add_argument("--c-pico", type=float, dest="c_pico")
    sub.add_argument("--alpha", help="fairness exponent; sweep takes a "
                     "comma-separated list")
    sub.add_argument("--beta", type=float)


def _parse_alpha(text):
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        values = []
    if not values:
        raise ConfigurationError(f"--alpha takes a number or a comma-separated "
                                 f"list of numbers (got {text!r})")
    return values if len(values) > 1 else values[0]


def build_config(args, direction=None):
    """The validated config of parsed options: a preset, then a config file,
    then every option named after an ExperimentConfig field, then direction.
    A sweep takes its direction from one of the first three."""
    data = {}
    if args.preset:
        data.update(PRESETS[args.preset])
    if args.config:
        import yaml
        with open(args.config) as fh:
            try:
                file_data = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                mark = getattr(exc, "problem_mark", None)
                where = "" if mark is None else \
                    f" at line {mark.line + 1}, column {mark.column + 1}"
                problem = getattr(exc, "problem", None) or "syntax error"
                raise ConfigurationError(
                    f"config file {args.config} is not valid YAML: "
                    f"{problem}{where}") from None
        if not isinstance(file_data, dict):
            raise ConfigurationError("config file must contain a mapping")
        data.update(file_data)
    for key, value in vars(args).items():
        if key in ExperimentConfig.__dataclass_fields__ and value is not None:
            data[key] = _parse_alpha(value) if key == "alpha" else value
    if direction is not None:
        data["direction"] = direction
    elif getattr(args, "command", None) == "sweep" and "direction" not in data:
        raise ConfigurationError("sweep needs a direction: pass --direction, "
                                 "or a preset or config file that sets one")
    return ExperimentConfig.from_dict(data)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cransim",
        description="Backhaul-compression gain simulator for clustered "
                    "cellular processing")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, descr in (("uplink", "uplink sum-rate / CDF experiment"),
                        ("downlink", "downlink sum-rate / CDF experiment"),
                        ("sweep", "fairness sweep: cell edge vs efficiency")):
        sub = subs.add_parser(name, help=descr)
        _add_common(sub)
        if name == "sweep":
            sub.add_argument("--direction", choices=["uplink", "downlink"],
                             help="required unless given by preset/config")
    args = parser.parse_args(argv)

    try:
        if args.command == "sweep":
            config = build_config(args)
            out_dir = args.out or default_out_dir()
            sweep = alpha_sweep(config)
            write_sweep(sweep, out_dir)
            print(f"sweep written to {out_dir}")
            for note in sweep.notes:
                print(f"note: {note}")
        else:
            config = build_config(args, direction=args.command)
            if len(config.alphas) > 1:
                raise ConfigurationError(
                    f"{args.command} takes one alpha, got {len(config.alphas)}"
                    f"; run `cransim sweep` for a list")
            out_dir = args.out or default_out_dir()
            report = run_experiment(config)
            write_report(report, out_dir)
            print(f"report written to {out_dir}")
    except (ConfigurationError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
