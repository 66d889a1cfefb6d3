"""Build the optional compiled census kernel.

The extension is compiled exactly when Cython imports.  The package is
fully functional without it: kernel.py selects the pure-Python fallback
at import time.
"""

from setuptools import setup

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = []
else:
    ext_modules = cythonize(
        ["src/qrcensus/_speedups.pyx"],
        compiler_directives={"language_level": "3"},
    )

setup(ext_modules=ext_modules)
