#!/usr/bin/env python3
"""Render the chamber cross-sections of the two built-in surfaces.

Writes <outdir>/quartic_chambers.svg and <outdir>/double_cover_chambers.svg,
each with the Weyl panel on the left and the Zariski panel on the right.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from k3chambers import gallery
from k3chambers.plot import (
    MODE_BOTH,
    CrossSectionSpec,
    classify_cross_section,
    render_cross_section,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--res", type=int, default=200, help="grid subdivisions per edge")
    parser.add_argument("--outdir", default="out", help="output directory")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = CrossSectionSpec(resolution=args.res, coloring=MODE_BOTH)
    for entry_id in gallery.GALLERY_IDS:
        entry = gallery.gallery_entry(entry_id)
        t0 = time.monotonic()
        svg = render_cross_section(entry.model, classify_cross_section(entry.model, spec))
        path = outdir / ("%s_chambers.svg" % entry_id.replace("-", "_"))
        path.write_bytes(svg.encode("utf-8"))
        print("%-14s -> %s  (%.1fs, %d bytes)"
              % (entry_id, path, time.monotonic() - t0, len(svg)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
