"""Per-module size of the ``netclear`` package in one or two checkouts.

Tokens are counted as ``tests/test_tooling.py`` counts them against the
parser's token buffer: every token ``tokenize`` yields, the ``ENCODING`` and
``ENDMARKER`` tokens included. Lines are newline characters, as ``wc -l``
counts them. Given two checkouts, each figure is followed by its change from
the first to the second; a module in only one of them counts 0 in the other:

    python3 tools/package_size.py PARENT_DIR CHANGE_DIR
    python3 tools/package_size.py CHECKOUT_DIR

The last line gives the totals over the package. A checkout without a
``src/netclear`` directory exits with status 2 and one line naming it.
"""

from __future__ import annotations

import argparse
import os
import sys
import tokenize


def module_sizes(root: str) -> dict[str, tuple[int, int]]:
    """``{file name: (tokens, lines)}`` for each module of
    ``root/src/netclear``."""
    package = os.path.join(root, "src", "netclear")
    sizes = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as source:
                tokens = sum(1 for _ in tokenize.tokenize(source.readline))
                source.seek(0)
                lines = source.read().count(b"\n")
            sizes[name] = (tokens, lines)
    return sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("parent", nargs="?", help="checkout to compare against")
    parser.add_argument("change", help="checkout to measure")
    args = parser.parse_args(argv)
    roots = [root for root in (args.parent, args.change) if root is not None]
    for root in roots:
        package = os.path.join(root, "src", "netclear")
        if not os.path.isdir(package):
            print(f"package_size.py: no package directory {package}", file=sys.stderr)
            return 2
    sides = [module_sizes(root) for root in roots]
    names = sorted(set().union(*sides))
    rows = [(name, [side.get(name, (0, 0)) for side in sides]) for name in names]
    rows.append(("total", [tuple(map(sum, zip(*side.values()))) for side in sides]))
    for name, sizes in rows:
        if len(sizes) == 1:
            (tokens, lines), = sizes
            print(f"{name:<14} tokens {tokens:>6}  lines {lines:>5}")
        else:
            (t0, l0), (t1, l1) = sizes
            print(
                f"{name:<14} tokens {t0:>6} -> {t1:>6} ({t1 - t0:+d})"
                f"  lines {l0:>5} -> {l1:>5} ({l1 - l0:+d})"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
