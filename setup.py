"""Setup script.

The offline environment ships setuptools 65 without the ``wheel``
package, so PEP 517/660 builds (which need ``bdist_wheel``) fail. All
packaging therefore goes through this classic setup.py so that
``pip install -e .`` uses the legacy develop path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "SLICC: Self-Assembly of Instruction Cache Collectives for OLTP "
        "Workloads (MICRO 2012) - full trace-driven reproduction"
    ),
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={"dev": ["pytest", "pytest-benchmark", "hypothesis"]},
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The native replay kernel is compiled from source on first use.
    package_data={"repro.sim": ["_native.c"]},
)
