import os
import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None


class optional_build_ext(build_ext):
    """Build the C kernel if we can; fall back to pure Python otherwise."""

    def run(self):
        try:
            super().run()
        except Exception as exc:
            print(f"warning: compiled kernel skipped ({exc})", file=sys.stderr)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: could not build {ext.name} ({exc}); "
                  "tmisim will use the pure-Python backend", file=sys.stderr)


# Cython regenerates the C from the .pyx; without it, the tracked
# generated C builds the same kernel
ext_modules = []
if not os.environ.get("TMISIM_NO_EXT"):
    source = "_speedups.pyx" if cythonize is not None else "_speedups.c"
    ext_modules = [Extension("tmisim._speedups", [f"src/tmisim/{source}"],
                             extra_compile_args=["-O3"])]
    if cythonize is not None:
        ext_modules = cythonize(ext_modules, language_level="3")

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
