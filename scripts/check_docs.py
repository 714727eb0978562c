"""Docs consistency check (run by CI).

Two guarantees keep docs/API.md a *curated but enforced* reference:

1. every relative markdown link in README.md and docs/API.md resolves
   to a file in the repository;
2. every public export (`__all__`) of the repro packages is mentioned
   in docs/API.md — adding an export without documenting it fails the
   build;
3. in every docs/API.md table row for an exported name, each
   `.method(...)` shown exists and each `kw=` shown is a parameter of
   the callable it is written against — a renamed or deleted keyword
   fails the build.

    PYTHONPATH=src python scripts/check_docs.py
"""

import importlib
import inspect
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOCS = ["README.md", os.path.join("docs", "API.md"), "DESIGN.md"]

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.labeling",
    "repro.planar",
    "repro.engine",
    "repro.service",
    "repro.server",
    "repro.workload",
    "repro.congest",
    "repro.aggregation",
    "repro.shortcuts",
    "repro.bdd",
    "repro.analysis",
    "repro.baselines",
    "repro.obs",
    "repro.obs.health",
]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)#]+)(?:#[^)]*)?\)")


def check_links():
    errors = []
    for doc in DOCS:
        path = os.path.join(ROOT, doc)
        text = open(path, encoding="utf-8").read()
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                errors.append(f"{doc}: broken link -> {target}")
    return errors


def check_api_coverage():
    api = open(os.path.join(ROOT, "docs", "API.md"),
               encoding="utf-8").read()
    errors = []
    for modname in PUBLIC_MODULES:
        mod = importlib.import_module(modname)
        for name in getattr(mod, "__all__", []):
            if name == "__version__":
                continue
            if not re.search(rf"(?<![A-Za-z0-9_]){re.escape(name)}"
                             rf"(?![A-Za-z0-9_])", api):
                errors.append(
                    f"docs/API.md: {modname}.{name} is exported but "
                    f"undocumented")
    return errors


def _exports():
    """name -> object for every public export."""
    out = {}
    for modname in PUBLIC_MODULES:
        mod = importlib.import_module(modname)
        for name in getattr(mod, "__all__", []):
            out.setdefault(name, getattr(mod, name))
    return out


def _resolve(dotted, exports):
    """The object a row's backticked name denotes, or None."""
    head, *rest = dotted.split(".")
    obj = exports.get(head)
    if obj is None:
        try:
            obj, rest = importlib.import_module(
                ".".join([head] + rest[:-1])), rest[-1:]
        except ImportError:
            return None
    for attr in rest:
        obj = getattr(obj, attr, None)
    return obj


def _call_groups(code):
    """``(name, args)`` for each call written in ``code``: ``name`` is
    ``"Name"``, ``".attr"``, ``"Name.attr"`` or ``""`` (a bare leading
    ``(...)``); ``args`` are the top-level comma-separated arguments."""
    out = []
    for m in re.finditer(r"(\.?[A-Za-z_][\w.]*)?\(", code):
        if code[:m.start()].rstrip().endswith("->"):
            continue  # a return annotation, not a call
        depth, i, args, arg = 1, m.end(), [], ""
        while i < len(code) and depth:
            c = code[i]
            depth += (c in "([{") - (c in ")]}")
            if depth == 1 and c == ",":
                args.append(arg)
                arg = ""
            elif depth:
                arg += c
            i += 1
        out.append((m.group(1) or "", args + [arg]))
    return out


def _params(fn):
    """Parameter names of ``fn``, or None when it takes ``**kwargs``
    or has no inspectable signature (anything goes)."""
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return None
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return None
    return {p.name for p in params}


def check_api_keywords():
    """Every ``.method(`` and ``kw=`` in a docs/API.md table row for an
    exported name must exist on the callable it is written against:
    ``Name(…)`` / ``Name.attr(…)`` name it; a bare ``(…)`` is one of
    the row's exports; ``.attr(…)`` is a method of the last object
    named in the row, or of any of the row's exports."""
    exports = _exports()
    errors, checked = [], 0
    for line in open(os.path.join(ROOT, "docs", "API.md"),
                     encoding="utf-8"):
        cells = line.split(" | ")
        if not line.startswith("| `") or len(cells) < 2:
            continue
        row = [_resolve(n, exports) for n in
               re.findall(r"`([\w.]+)`", cells[0])]
        row = [obj for obj in row if obj is not None]
        if not row:
            continue
        current = row[0]
        for code in re.findall(r"`([^`]*)`", cells[1]):
            for name, args in _call_groups(code):
                if name.startswith("."):
                    owners = [o for o in [current] + row
                              if hasattr(o, name[1:])]
                    targets = [getattr(o, name[1:]) for o in owners]
                    if not targets:
                        errors.append(f"docs/API.md: {cells[0][2:]} "
                                      f"row shows {name}(…), which "
                                      f"no export of the row has")
                        continue
                elif name:
                    obj = _resolve(name, exports)
                    if obj is None:
                        continue  # not an export (``len()``, ...)
                    head = _resolve(name.split(".")[0], exports)
                    current = head if head is not None else obj
                    targets = [obj]
                else:
                    targets = row
                for arg in args:
                    kw = re.match(r"\s*(\w+)\s*=(?!=)", arg)
                    if kw is None:
                        continue
                    checked += 1
                    params = [_params(t) for t in targets]
                    if not any(p is None or kw.group(1) in p
                               for p in params):
                        errors.append(
                            f"docs/API.md: {cells[0][2:]} row shows "
                            f"{name or '('}…{kw.group(1)}=…, not a "
                            f"parameter of that callable")
    return errors, checked


def main():
    kw_errors, checked = check_api_keywords()
    errors = check_links() + check_api_coverage() + kw_errors
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"{len(errors)} docs problem(s)", file=sys.stderr)
        return 1
    print(f"docs OK: links resolve, every public export is "
          f"documented, {checked} documented keywords exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
