"""The package facade is the stable public surface.

``repro/__init__.py`` is the contract: everything the README's
quickstart imports must be there, and ``__all__`` must be importable
and exact.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

README = Path(__file__).resolve().parent.parent / "README.md"


class TestPublicSurface:
    def test_all_names_are_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_readme_quickstart_imports_are_public(self):
        """Every ``from repro import X, Y`` in the README must resolve."""
        names: set[str] = set()
        for match in re.finditer(
            r"^from repro import (.+)$", README.read_text(), re.MULTILINE
        ):
            names.update(n.strip() for n in match.group(1).split(","))
        assert names, "README lost its quickstart imports"
        missing = sorted(n for n in names if n not in repro.__all__)
        assert not missing, f"README imports missing from repro.__all__: {missing}"

    def test_canonical_run_surface(self):
        """The documented entry points, by their documented names."""
        for name in (
            "run_uts",
            "run_many",
            "RunResult",
            "RunProgress",
            "WorkStealingConfig",
            "SimulationService",
            "SweepHandle",
            "Job",
            "JobState",
            "JobEvent",
            "JobFailure",
            "ResultCache",
            "ArtifactStore",
        ):
            assert name in repro.__all__, name

    def test_legacy_store_name_is_the_store(self):
        """``ResultCache`` stays only for the frozen ledger's subclass."""
        assert repro.ResultCache is repro.ArtifactStore

    def test_service_package_facade(self):
        import repro.service as service

        for name in service.__all__:
            assert getattr(service, name, None) is not None, name

    def test_protocol_package_imports_nothing_from_sim(self):
        """The dependency is one-way: ``repro.sim`` -> ``repro.protocol``."""
        package = Path(repro.__file__).parent / "protocol"
        modules = sorted(package.glob("*.py"))
        assert modules
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    imported = [node.module or ""]
                else:
                    continue
                for name in imported:
                    assert not (name + ".").startswith("repro.sim."), (
                        f"{path.name} imports {name}"
                    )
