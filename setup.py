"""Package metadata for ``repro``, the reproduction's stdlib-only library.

The package lives under ``src/``.  Editable installs::

    pip install -e . --no-build-isolation --no-use-pep517   # needs setuptools + wheel
    python setup.py develop                                  # setuptools alone

pip refuses ``--no-use-pep517`` when the ``wheel`` package is missing; the
``setup.py develop`` form installs the same editable package without it.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description="Privacy and ownership preserving of outsourced medical data",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
