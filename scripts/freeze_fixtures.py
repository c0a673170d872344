#!/usr/bin/env python3
"""Regenerate the frozen acceptance fixtures, or check that they reproduce.

Run from the repository root:

    python3 scripts/freeze_fixtures.py          # rewrite the fixtures
    python3 scripts/freeze_fixtures.py --check  # compare, write nothing

Writes tests/fixtures/{probe_toy.ckpt,probe_report.json,probe_schema.json,
protocol_k4_m4.json} and prints the multi-view trend numbers whose frozen
copies live as constants in tests/test_acceptance.py. Rerun after any change
that deliberately shifts deterministic numerics, then update those constants.

After a rerun, commit all four written files together. probe_report.json is
the probe of the model stored in probe_toy.ckpt, so a report committed
without its checkpoint (or with one from another run) cannot be reproduced.

``--check`` regenerates the fixtures into a temporary directory, compares
their bytes with tests/fixtures/, then compares the trend numbers with the
TREND_* constants exactly. It exits 1 at the first mismatch, naming it, and 0
when everything reproduces bit for bit: the proof that a change kept the
deterministic numerics.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the only files this script writes are fixtures

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
FIXTURE_FILES = ("probe_toy.ckpt", "probe_schema.json", "probe_report.json",
                 "protocol_k4_m4.json")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from acceptance_workloads import (probe_environment, run_protocol_fixture,
                                  run_trend)
from mvre.init_schemes import DYNAMIC, apply_init, save_probe_report
from mvre.model import save_checkpoint
from mvre.schema import save_schema
from mvre.vocab import vocab_payload


def write_fixtures(out: Path, t0: float):
    print("building probe toy checkpoint ...")
    dataset, schema, vocab, verbalizer, model = probe_environment()
    save_checkpoint(out / "probe_toy.ckpt", model,
                    vocab_payload=vocab_payload(vocab, verbalizer))
    save_schema(schema, out / "probe_schema.json")
    _, report = apply_init(DYNAMIC, schema, vocab, verbalizer, model)
    save_probe_report(report, out / "probe_report.json")
    print(f"  {len(report)} probe records ({time.perf_counter() - t0:.0f}s)")

    print("running similarity-protocol fixture (k=4, m=4) ...")
    protocol = run_protocol_fixture()
    with open(out / "protocol_k4_m4.json", "w", encoding="utf-8") as fh:
        json.dump(protocol, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"  ratios: multi={protocol['ratio_multi_mask']:.4f} "
          f"single={protocol['ratio_single_mask']:.4f} "
          f"({time.perf_counter() - t0:.0f}s)")


def check(t0: float) -> int:
    from test_acceptance import TREND_MARGIN, TREND_MEAN_M1, TREND_MEAN_M3

    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp), t0)
        for name in FIXTURE_FILES:
            committed = FIXTURES / name
            if not committed.exists():
                print(f"MISMATCH: tests/fixtures/{name} is missing")
                return 1
            if (Path(tmp) / name).read_bytes() != committed.read_bytes():
                print(f"MISMATCH: regenerated {name} differs from tests/fixtures/{name}")
                return 1
    print(f"  all {len(FIXTURE_FILES)} fixtures reproduce byte for byte")

    print("measuring multi-view trend (this is the slow part) ...")
    trend = run_trend()
    for key, name, frozen in (("mean_low", "TREND_MEAN_M1", TREND_MEAN_M1),
                              ("mean_high", "TREND_MEAN_M3", TREND_MEAN_M3),
                              ("margin", "TREND_MARGIN", TREND_MARGIN)):
        if trend[key] != frozen:
            print(f"MISMATCH: trend {key} = {trend[key]!r}, {name} = {frozen!r}")
            return 1
    print(f"OK: fixtures and trend constants reproduce bit for bit "
          f"({time.perf_counter() - t0:.0f}s)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="regenerate into a temporary directory and compare; "
                         "exit 1 at the first mismatch")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    if args.check:
        return check(t0)

    FIXTURES.mkdir(parents=True, exist_ok=True)
    write_fixtures(FIXTURES, t0)
    print("measuring multi-view trend (this is the slow part) ...")
    trend = run_trend()
    print(json.dumps(trend, indent=2))
    print(f"done in {time.perf_counter() - t0:.0f}s")
    print("\npaste into tests/test_acceptance.py:")
    print(f"  TREND_MEAN_M1 = {trend['mean_low']!r}")
    print(f"  TREND_MEAN_M3 = {trend['mean_high']!r}")
    print(f"  TREND_MARGIN = {trend['margin']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
