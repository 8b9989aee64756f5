"""Setup shim for environments without the `wheel` package.

PEP 517 editable installs need `wheel` on older setuptools; this shim
lets ``pip install -e . --no-use-pep517`` (and plain
``python setup.py develop``) work offline. Metadata lives in
pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
