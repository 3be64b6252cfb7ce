"""Count the options a hoi source tree offers its users.

An option is a value a caller may set or leave at its default. Three
kinds are counted:

- library: the keyword parameters with a default of every callable that
  hoi.__all__ names (a class by its constructor), the config dataclasses
  aside;
- config: the fields of the config dataclasses ObjectiveSpec and
  AnnealSchedule;
- cli: the flags of every subcommand of cli._build_parser(), --help aside.

Run from anywhere:

    python tools/options.py [SRC]
    python tools/options.py SRC_A SRC_B

SRC is the directory holding the hoi package, such as a checkout's src
(default: the repository's src). With one tree the script lists every
option and the totals. With two it imports each tree in its own
subprocess and prints, per callable, dataclass or subcommand, the options
only one tree has (removed from A or added in B), then both trees' totals
and the change from A to B.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

CONFIGS = ("ObjectiveSpec", "AnnealSchedule")
SECTIONS = ("library", "config", "cli")


def _import_hoi(src: str):
    """The hoi package under src, imported in place of any other."""
    root = Path(src).resolve()
    sys.path.insert(0, str(root))
    import hoi

    if Path(hoi.__file__).resolve().parent != root / "hoi":
        raise SystemExit(f"imported hoi from {hoi.__file__}, not from {root}")
    return hoi


def _keywords(obj) -> list:
    """The parameters of obj that a caller may pass by name or leave out."""
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):  # no introspectable signature
        return []
    return [p.name for p in params if p.default is not inspect.Parameter.empty
            and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]


def options(src: str) -> dict:
    """{section: {callable, dataclass or subcommand: [option names]}} of one tree."""
    hoi = _import_hoi(src)
    from dataclasses import fields

    from hoi import cli

    library = {}
    for name in hoi.__all__:
        obj = getattr(hoi, name)
        if callable(obj) and name not in CONFIGS:
            library[name] = _keywords(obj)
    config = {name: [f.name for f in fields(getattr(hoi, name))] for name in CONFIGS}
    sub = next(a for a in cli._build_parser()._actions if a.choices and not a.option_strings)
    flags = {name: [max(a.option_strings, key=len) for a in parser._actions
                    if a.option_strings and a.dest != "help"]
             for name, parser in sub.choices.items()}
    return {"library": library, "config": config, "cli": flags}


def _total(section: dict) -> int:
    return sum(len(names) for names in section.values())


def _show(tree: dict) -> None:
    for kind in SECTIONS:
        print(f"{kind}")
        for name, names in tree[kind].items():
            if names:
                print(f"  {name}: {', '.join(names)}")
        print(f"  total {_total(tree[kind])}")


def _of_subprocess(src: str) -> dict:
    """options(src), computed in a fresh interpreter so that two trees'
    hoi packages never meet in one process."""
    out = subprocess.run([sys.executable, __file__, "--json", src],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _compare(a: dict, b: dict) -> None:
    for kind in SECTIONS:
        print(f"{kind}")
        for name in sorted(a[kind].keys() | b[kind].keys()):
            old, new = a[kind].get(name, []), b[kind].get(name, [])
            gone, added = [o for o in old if o not in new], [o for o in new if o not in old]
            for verb, names in (("removed", gone), ("added", added)):
                if names:
                    print(f"  {name}: {verb} {', '.join(names)}")
        ta, tb = _total(a[kind]), _total(b[kind])
        print(f"  total {ta} -> {tb} ({tb - ta:+d})")


def main(argv) -> None:
    args = argv[1:]
    if args[:1] == ["--json"] and len(args) == 2:
        print(json.dumps(options(args[1])))
    elif len(args) <= 1:
        _show(options(args[0] if args else str(Path(__file__).resolve().parent.parent / "src")))
    elif len(args) == 2:
        _compare(*(_of_subprocess(src) for src in args))
    else:
        raise SystemExit("usage: options.py [SRC] | SRC_A SRC_B")


if __name__ == "__main__":
    main(sys.argv)
