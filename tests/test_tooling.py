"""Tests for the tooling layer: report generator, postproc driver,
CLI entry points, BP5 buffering."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.presets import dardel
from repro.darshan import write_throughput_gib
from repro.experiments.postproc import run_postproc
from repro.experiments.report import SECTIONS, build_report, write_report
from repro.workloads import run_openpmd_scaled, run_original_scaled


class TestReportGenerator:
    def test_build_with_partial_results(self, tmp_path):
        (tmp_path / "fig5.txt").write_text("Fig 5 content here\n")
        text = build_report(tmp_path)
        assert "Fig 5 content here" in text
        assert "missing sections" in text
        assert text.startswith("# Reproduction report")

    def test_write_report_creates_file(self, tmp_path):
        (tmp_path / "fig6.txt").write_text("fig6 rows\n")
        out = write_report(tmp_path)
        assert out.name == "REPORT.md"
        assert "fig6 rows" in out.read_text()

    def test_all_sections_have_titles(self):
        names = [s[0] for s in SECTIONS]
        assert len(names) == len(set(names))
        for name, title, _anchor in SECTIONS:
            assert title

    def test_anchor_lines_rendered(self, tmp_path):
        text = build_report(tmp_path)
        assert "17.868" in text  # the Fig. 5 anchor appears
        assert "15.8" in text    # the Fig. 6 anchor appears


class TestPostproc:
    def test_aggregated_restart_faster(self):
        res = run_postproc(nodes=50, aggregators=(1, 50, 6400))
        rates = dict(zip(res.aggregators, res.read_gib_s))
        assert rates[50] > rates[1]
        assert all(r > 0 for r in res.read_gib_s)

    def test_render(self):
        res = run_postproc(nodes=10, aggregators=(1, 10))
        assert "restart read GiB/s" in res.render()


class TestBP5Buffering:
    def test_bp5_slower_but_same_order(self):
        bp4 = run_openpmd_scaled(dardel(), 20, num_aggregators=20,
                                 engine_ext=".bp4")
        bp5 = run_openpmd_scaled(dardel(), 20, num_aggregators=20,
                                 engine_ext=".bp5")
        t4 = write_throughput_gib(bp4.log)
        t5 = write_throughput_gib(bp5.log)
        assert t5 <= t4 * 1.001
        assert t5 > 0.5 * t4

    def test_bp5_issues_more_write_ops(self):
        bp4 = run_openpmd_scaled(dardel(), 20, num_aggregators=20,
                                 engine_ext=".bp4")
        bp5 = run_openpmd_scaled(dardel(), 20, num_aggregators=20,
                                 engine_ext=".bp5")
        assert (bp5.log.counter_total("POSIX_WRITES")
                > bp4.log.counter_total("POSIX_WRITES"))

    def test_bp5_disk_layout_identical(self):
        bp4 = run_openpmd_scaled(dardel(), 5, num_aggregators=1,
                                 engine_ext=".bp4")
        bp5 = run_openpmd_scaled(dardel(), 5, num_aggregators=1,
                                 engine_ext=".bp5")
        s4 = np.sort(bp4.file_sizes())
        s5 = np.sort(bp5.file_sizes())
        # same data + one extra mmd.0 per series
        assert len(s5) == len(s4) + 2
        data4, data5 = s4[-2:], s5[-2:]
        assert np.allclose(data4, data5, rtol=0.01)


#: imports each named module with no ``repro`` module loaded before it
_IMPORT_ALONE = """
import importlib, sys
failed = []
for name in sys.argv[1:]:
    for mod in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[mod]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed.append(f"{name}: {exc!r}")
print("\\n".join(failed))
sys.exit(1 if failed else 0)
"""


class TestPackageImports:
    def test_each_package_imports_on_its_own(self):
        """An import cycle only shows when its package is imported first,
        so each ``repro.*`` package is imported with no other ``repro``
        module loaded (one fresh interpreter; the modules are dropped
        from ``sys.modules`` between packages)."""
        import repro

        root = Path(repro.__file__).parent
        packages = sorted(f"repro.{p.parent.name}"
                          for p in root.glob("*/__init__.py"))
        assert "repro.tuning" in packages
        env = {**os.environ, "PYTHONPATH": str(root.parent)}
        out = subprocess.run([sys.executable, "-c", _IMPORT_ALONE,
                              *packages], capture_output=True, text=True,
                             env=env, timeout=240)
        assert out.returncode == 0, out.stdout + out.stderr


def _src_nodes(skip: str | None = None):
    """(module path, AST node) over every ``repro`` module but ``skip``."""
    import repro

    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel != skip:
            for node in ast.walk(ast.parse(path.read_text(), filename=rel)):
                yield rel, node


#: PosixIO internals no other module may touch: clocks and events go
#: through ``PosixIO.charge``, descriptors through ``PosixIO.ino_of``;
#: the descriptor table's columns and allocator stay private, as did
#: the names they replaced
POSIX_PRIVATE = frozenset({"_charge", "_notify", "_fds", "_fd_ino",
                           "_inos_of", "_fd_rank", "_fd_pos", "_fd_api",
                           "_n_open", "_alloc_fds", "_alloc_fd",
                           "_alloc_fd_group"})


class TestAccountingBoundary:
    def test_no_module_reaches_into_posix_privates(self):
        uses = [f"{rel}:{node.lineno} .{node.attr}"
                for rel, node in _src_nodes("fs/posix.py")
                if isinstance(node, ast.Attribute)
                and node.attr in POSIX_PRIVATE]
        assert not uses, (f"{len(uses)} uses of PosixIO private members "
                          "outside fs/posix.py:\n" + "\n".join(uses))


class TestTestModules:
    def test_no_test_module_imports_another(self):
        """Test modules share helpers through ``tests/oracle.py`` only:
        no ``tests/test_*.py`` imports from another ``tests.test_*``."""
        tests = Path(__file__).parent
        imports = []
        for path in sorted(tests.glob("test_*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = ([node.module] if isinstance(node, ast.ImportFrom)
                         else [a.name for a in node.names]
                         if isinstance(node, ast.Import) else [])
                imports += [f"{path.name}:{node.lineno} {name}"
                            for name in names
                            if name and name.startswith("tests.test_")]
        assert not imports, "\n".join(imports)


class TestPerfModelStream:
    """The step lane draws a run's storage noise as one block in the
    per-step order, which holds only while the perf model alone draws
    from its stream: no other module reaches a model's ``_rng`` or opens
    the ``"perfmodel"`` registry stream."""

    def test_only_the_perf_model_draws_its_stream(self):
        uses = []
        for rel, node in _src_nodes("fs/perfmodel.py"):
            if (isinstance(node, ast.Attribute) and node.attr == "_rng"
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                uses.append(f"{rel}:{node.lineno} .{node.attr}")
            elif (isinstance(node, ast.Constant)
                  and node.value == "perfmodel"):
                uses.append(f"{rel}:{node.lineno} {node.value!r}")
        assert not uses, ("the perf model's noise stream is drawn outside "
                          "fs/perfmodel.py:\n" + "\n".join(uses))


#: the PIC particle stores' internals no module outside ``repro/pic/``
#: may touch: per-rank counts, bounds and ids stay behind the stores'
#: read-only properties, a per-rank handle reaches its store only
#: through the store's mutators, and the simulation's stores, subdomain
#: bounds and migration stay its own
SIM_PRIVATE = frozenset({"_species_stores", "_stores_view", "_rank_counts",
                         "_rank_bounds", "_rank_ids", "_set_counts",
                         "_species_store", "_permute", "_ensure",
                         "_migrate", "_sub_lo", "_sub_hi"})


class TestParticleStoreBoundary:
    def test_no_module_outside_pic_reaches_into_the_stores(self):
        uses = [f"{rel}:{node.lineno} .{node.attr}"
                for rel, node in _src_nodes()
                if not rel.startswith("pic/")
                and isinstance(node, ast.Attribute)
                and node.attr in SIM_PRIVATE]
        assert not uses, (f"{len(uses)} uses of particle-store private "
                          "members outside repro/pic/:\n" + "\n".join(uses))


#: ADIOS2 engine parameter names: the TOML parser decodes them into an
#: ``EngineConfig``, and everything else passes that object
ENGINE_PARAMETERS = frozenset({
    "NumAggregators", "NumSubFiles", "Profile", "AsyncWrite", "MaxShmSize",
    "RankBlockSize", "ProfileGranularity", "BufferChunkSize"})


class TestEngineParameterNames:
    def test_only_the_options_parser_spells_engine_parameters(self):
        uses = [f"{rel}:{node.lineno} {node.value!r}"
                for rel, node in _src_nodes("openpmd/config.py")
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in ENGINE_PARAMETERS]
        assert not uses, (f"{len(uses)} ADIOS2 engine parameter names "
                          "outside openpmd/config.py:\n" + "\n".join(uses))


#: the step protocol the engine base class owns for every engine
ENGINE_PROTOCOL = ("declare_variable", "define_attribute", "_check_in_step")


class TestEngineProtocol:
    def test_protocol_is_defined_once(self):
        defs = {name: [] for name in ENGINE_PROTOCOL}
        for rel, node in _src_nodes():
            if isinstance(node, ast.FunctionDef) and node.name in defs:
                defs[node.name].append(f"{rel}:{node.lineno}")
        repeated = {name: where for name, where in defs.items()
                    if len(where) != 1}
        assert not repeated, ("engine protocol methods not defined exactly "
                              f"once under src/repro: {repeated}")

    def test_every_engine_subclasses_the_base(self):
        from repro.adios2 import ENGINES_BY_EXTENSION, Engine, SSTEngine
        from repro.openpmd import HDF5Engine, JSONEngine

        engines = [*ENGINES_BY_EXTENSION.values(), HDF5Engine, JSONEngine,
                   SSTEngine]
        assert [cls.__name__ for cls in engines
                if not issubclass(cls, Engine)] == []


class TestCLIs:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", *args],
                              capture_output=True, text=True, timeout=240)

    def test_darshan_cli_total_and_summary(self, tmp_path):
        res = run_original_scaled(dardel(), 1)
        log_path = tmp_path / "job.darshan.json.gz"
        res.log.save(log_path)
        out = self._run("repro.darshan", "--total", str(log_path))
        assert out.returncode == 0
        assert "total_STDIO_BYTES_WRITTEN" in out.stdout
        out = self._run("repro.darshan", "--summary", str(log_path))
        assert out.returncode == 0
        assert json.loads(out.stdout)["nprocs"] == 128

    def test_darshan_cli_missing_file(self):
        out = self._run("repro.darshan", "/nonexistent.json.gz")
        assert out.returncode == 1
        assert "cannot read" in out.stderr

    def test_experiments_cli_quick(self):
        out = self._run("repro.experiments", "--quick", "fig8")
        assert out.returncode == 0
        assert "memory copies eliminated by compression: True" in out.stdout

    def test_experiments_cli_unknown(self):
        out = self._run("repro.experiments", "fig99")
        assert out.returncode == 2

    def test_ior_cli_table1_command(self):
        out = self._run("repro.ior", "--machine", "dardel",
                        "srun -n 256 ior -N=256 -a POSIX -F -C -e")
        assert out.returncode == 0
        assert "GiB/s write" in out.stdout
        assert "file-per-process" in out.stdout

    def test_ior_cli_bad_command(self):
        out = self._run("repro.ior", "not an ior line")
        assert out.returncode == 2

    def test_ior_cli_unknown_machine(self):
        out = self._run("repro.ior", "--machine", "summit",
                        "ior -N=4 -a POSIX")
        assert out.returncode == 2


class TestWeakScaling:
    def test_config_scales_with_nodes(self):
        from repro.experiments.weak_scaling import scaled_config

        small = scaled_config(1)
        big = scaled_config(10)
        assert big.ncells == 10 * small.ncells
        assert big.length == pytest.approx(10 * small.length)
        # per-rank particle load stays constant
        assert big.total_particles() == pytest.approx(
            10 * small.total_particles(), rel=0.05)

    def test_bp4_retains_more_per_node_rate(self):
        from repro.experiments.weak_scaling import run_weak_scaling

        res = run_weak_scaling(node_counts=(1, 20))
        orig = res.get("BIT1 Original I/O")
        bp4 = res.get("BIT1 openPMD + BP4")
        assert (bp4.y_at(20) / bp4.y_at(1)
                > orig.y_at(20) / orig.y_at(1))


class TestSensitivity:
    def test_mechanism_isolation_small(self):
        from repro.experiments.sensitivity import run_sensitivity

        res = run_sensitivity(constants=("sync_latency",), nodes=10)
        es = res.elasticities["sync_latency"]
        assert abs(es["orig meta s @200"]) > 0.3
        assert abs(es["BP4 @400 aggr"]) < 0.1
        assert res.shape_survives["sync_latency"]
        assert "sync_latency" in res.render()

    def test_invalid_scale(self):
        from repro.experiments.sensitivity import run_sensitivity

        with pytest.raises(ValueError):
            run_sensitivity(scale=1.0)
