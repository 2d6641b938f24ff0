#!/usr/bin/env python3
"""Render SVGs for a gallery of canonical states into an output directory.

Each file is one `qubit-spheres render` call, so it carries the CLI's title.
Usage: python scripts/render_gallery.py [outdir]   (default: out/)
"""

import sys
from pathlib import Path

from qubit_spheres import cli
from qubit_spheres.state import BASIS_NAMES, BELL_NAMES

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = [(f"basis_{label}", ["--basis", label]) for label in BASIS_NAMES]
    jobs += [("bell_" + name.replace("+", "_plus").replace("-", "_minus"), ["--bell", name])
             for name in BELL_NAMES]
    jobs += [(f"circuit_{circ.stem}", ["--circuit", str(circ)])
             for circ in sorted((ROOT / "circuits").glob("*.circ"))]
    for stem, source in jobs:
        code = cli.main(["render", *source, "--out", str(outdir / f"{stem}.svg")])
        if code != 0:
            return code
    print(f"wrote {len(list(outdir.glob('*.svg')))} files to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
