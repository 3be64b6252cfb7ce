"""Print the size of every src/hoi module and of the package.

Two counts per file: every line, as `wc -l` counts them, and the code
lines only, those holding a token that is not part of a comment or a
docstring (module, class or function docstrings, found with ast). Run
from anywhere:

    python tools/src_size.py [SRC_DIR]

SRC_DIR defaults to the repository's src/hoi.
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


def main(argv) -> None:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "hoi"
    total = [0, 0]
    print(f"{'module':<20}{'lines':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        lines, code = sizes(path.read_text(encoding="utf-8"))
        total = [total[0] + lines, total[1] + code]
        print(f"{path.name:<20}{lines:>8}{code:>8}")
    print(f"{'total':<20}{total[0]:>8}{total[1]:>8}")


if __name__ == "__main__":
    main(sys.argv)
