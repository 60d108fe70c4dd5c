"""Legacy setup shim, plus the optional compiled-engine extension.

The environment this reproduction targets has no network access and no
``wheel`` package, so PEP 517 editable installs are unavailable;
``pip install -e . --no-use-pep517 --no-build-isolation`` (or plain
``python setup.py develop``) uses this shim instead. All metadata lives in
pyproject.toml.

The compiled discrete-event engine is opt-in: a plain install stays
pure-Python (existing CI jobs keep exercising the pure fallback), while

    REPRO_BUILD_EXT=1 python setup.py build_ext --inplace

compiles ``repro.simmachine._cengine`` in place.  The build is
failure-tolerant — a missing compiler or headers degrades to the pure
backend instead of breaking the install.
"""

import os

from setuptools import setup

ext_modules = []
cmdclass = {}

if os.environ.get("REPRO_BUILD_EXT"):
    from setuptools import Extension
    from setuptools.command.build_ext import build_ext

    class optional_build_ext(build_ext):
        """Build the engine extension; degrade to pure Python on failure."""

        def run(self):
            try:
                super().run()
            except Exception as exc:  # pragma: no cover - toolchain-dependent
                self._warn(exc)

        def build_extension(self, ext):
            try:
                super().build_extension(ext)
            except Exception as exc:  # pragma: no cover - toolchain-dependent
                self._warn(exc)

        @staticmethod
        def _warn(exc):
            print(
                "warning: compiled engine build failed; the pure-Python "
                f"backend will be used ({exc})"
            )

    ext_modules.append(
        Extension(
            "repro.simmachine._cengine",
            sources=["src/repro/simmachine/_cengine.c"],
            optional=True,
        )
    )
    cmdclass["build_ext"] = optional_build_ext

setup(ext_modules=ext_modules, cmdclass=cmdclass)
