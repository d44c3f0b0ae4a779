#!/usr/bin/env python3
"""Run every bundled experiment config and print a one-line summary each."""

import pathlib
import sys

from cocyclib.cli import emit, load_config, run


def main() -> int:
    here = pathlib.Path(__file__).resolve().parent
    out_dir = here / "reports"
    out_dir.mkdir(exist_ok=True)
    configs = [load_config(str(p)) for p in (here / "configs").glob("*.json")]
    all_ok = True
    for config in sorted(configs, key=lambda c: c["experiment"]["kind"]):
        kind = config["experiment"]["kind"]
        report = run(config)
        (out_dir / f"{kind}.json").write_text(emit(report, "json"))
        status = "ok" if report["passed"] else "FAILED"
        checks = ", ".join(f"{c['name']}={'y' if c['passed'] else 'N'}"
                           for c in report["checks"])
        print(f"{kind:18s} {status:6s} {checks}")
        all_ok = all_ok and report["passed"]
    print(f"reports written to {out_dir}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
