"""Print the size of every src/hoi module and of the package.

Two counts per file: every line, as `wc -l` counts them, and the code
lines only, those holding a token that is not part of a comment or a
docstring (module, class or function docstrings, found with ast). Run
from anywhere:

    python tools/src_size.py [SRC_DIR]
    python tools/src_size.py SRC_A SRC_B

SRC_DIR defaults to the repository's src/hoi. With two directories it
prints both trees' counts per module (0 where a tree lacks the module)
and the change from SRC_A to SRC_B.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def sizes(text: str) -> tuple:
    """(lines, code lines) of one Python source."""
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return text.count("\n"), len(code)


def table(root: Path) -> dict:
    """{module name: (lines, code lines)} of every module under root."""
    return {path.name: sizes(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("*.py"))}


def main(argv) -> None:
    roots = [Path(a) for a in argv[1:]] or [Path(__file__).resolve().parent.parent / "src" / "hoi"]
    if len(roots) == 1:
        total = [0, 0]
        print(f"{'module':<20}{'lines':>8}{'code':>8}")
        for name, (lines, code) in table(roots[0]).items():
            total = [total[0] + lines, total[1] + code]
            print(f"{name:<20}{lines:>8}{code:>8}")
        print(f"{'total':<20}{total[0]:>8}{total[1]:>8}")
        return
    if len(roots) != 2:
        raise SystemExit("usage: src_size.py [SRC_DIR] | SRC_A SRC_B")
    a, b = table(roots[0]), table(roots[1])
    rows = {name: a.get(name, (0, 0)) + b.get(name, (0, 0))
            for name in sorted(a.keys() | b.keys())}
    rows["total"] = tuple(sum(r[i] for r in rows.values()) for i in range(4))
    print(f"{'module':<20}{'lines A':>9}{'code A':>8}{'lines B':>9}{'code B':>8}"
          f"{'Δ lines':>9}{'Δ code':>8}")
    for name, (la, ca, lb, cb) in rows.items():
        print(f"{name:<20}{la:>9}{ca:>8}{lb:>9}{cb:>8}{lb - la:>+9}{cb - ca:>+8}")


if __name__ == "__main__":
    main(sys.argv)
