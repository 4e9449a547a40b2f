"""Legacy setup shim.

The execution environment has no network and no ``wheel`` package, so
PEP 517 editable installs fail with ``invalid command 'bdist_wheel'``.
Keeping a setup.py lets ``pip install -e . --no-build-isolation`` fall
back to the classic ``setup.py develop`` path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
)
