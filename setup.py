import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


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


setup(ext_modules=[Extension("tmisim._speedups", ["src/tmisim/_speedups.c"],
                             extra_compile_args=["-O3"])],
      cmdclass={"build_ext": optional_build_ext})
