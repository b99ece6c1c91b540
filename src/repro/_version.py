"""Single source of truth for the package version.

``_VERSION`` is the literal the build backend reads (see
``[tool.setuptools.dynamic]`` in ``pyproject.toml``).  :data:`__version__`
prefers the installed distribution's metadata — so ``repro --version``
reports what pip actually installed — and falls back to the literal for
``PYTHONPATH=src`` checkouts that were never installed.  It is resolved
on first read: ``importlib.metadata`` is only imported when a caller asks
for the version.
"""

_VERSION = "1.1.0"


def __getattr__(name: str) -> str:
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib.metadata import PackageNotFoundError, version

    try:
        value = version("repro-green-scheduling")
    except PackageNotFoundError:  # pragma: no cover - uninstalled source checkout
        value = _VERSION
    globals()["__version__"] = value
    return value
