#!/usr/bin/env python
"""Lint the ``repro`` public API surface (CI gate).

Fails (exit 1) when a facade's export contract is violated, for each
linted module (the top-level ``repro`` package, ``repro.plan``, and the
``repro.serve`` service facade):

* a name in ``__all__`` does not exist on the module;
* a public symbol (non-underscore class/function defined somewhere in
  ``repro.*`` and re-exported on the module) is missing from ``__all__``
  — the "new public symbol without an ``__all__`` entry" case;
* an exported class or function lacks a docstring.

Run locally with ``PYTHONPATH=src python tools/check_public_api.py``.
"""

from __future__ import annotations

import sys


def lint_module(module) -> list[str]:
    """Export-contract violations for one module with an ``__all__``."""
    name = module.__name__
    failures: list[str] = []
    exported = set(module.__all__)

    for symbol in sorted(exported):
        if not hasattr(module, symbol):
            failures.append(
                f"{name}.__all__ lists {symbol!r} but {name} has no such attribute"
            )

    dupes = len(module.__all__) - len(exported)
    if dupes:
        failures.append(
            f"{name}.__all__ contains {dupes} duplicate "
            f"entr{'y' if dupes == 1 else 'ies'}"
        )

    for symbol in sorted(set(vars(module)) - exported):
        if symbol.startswith("_") or symbol in ("annotations",):
            continue
        obj = getattr(module, symbol)
        if not callable(obj):
            continue  # data constants and submodules may stay unexported
        if getattr(obj, "__module__", "").startswith("repro"):
            failures.append(
                f"public symbol {name}.{symbol} is importable but missing from "
                f"__all__ (add it, or prefix the import with an underscore)"
            )

    for symbol in sorted(exported & set(vars(module))):
        obj = getattr(module, symbol)
        if not callable(obj):
            continue
        if not (getattr(obj, "__doc__", None) or "").strip():
            failures.append(f"exported symbol {name}.{symbol} has no docstring")

    return failures


def main() -> int:
    import repro
    import repro.plan
    import repro.serve

    failures: list[str] = []
    modules = (repro, repro.plan, repro.serve)
    for module in modules:
        failures.extend(lint_module(module))

    if failures:
        print("public API lint failed:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    total = sum(len(set(m.__all__)) for m in modules)
    print(
        f"public API ok: {total} exported names across "
        f"{', '.join(m.__name__ for m in modules)}, all present and documented"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
