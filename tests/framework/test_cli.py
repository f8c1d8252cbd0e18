"""Tests for the command-line interface (protect / detect on CSV files)."""

import json

import pytest

from repro.cli import main
from repro.datagen.medical import generate_medical_table


@pytest.fixture(scope="module")
def raw_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "raw.csv"
    generate_medical_table(size=800, seed=55).to_csv(str(path))
    return str(path)


COMMON = [
    "--k",
    "10",
    "--eta",
    "20",
    "--encryption-key",
    "cli-enc-key",
    "--watermark-secret",
    "cli-wm-secret",
]


class TestCLI:
    def test_protect_then_detect_roundtrip(self, raw_csv, tmp_path, capsys):
        protected_csv = str(tmp_path / "protected.csv")
        assert main(["protect", raw_csv, protected_csv, *COMMON]) == 0
        out = capsys.readouterr().out
        mark_line = next(line for line in out.splitlines() if "mark F(v)" in line)
        mark = mark_line.split(":")[1].strip()
        assert len(mark) == 20 and set(mark) <= {"0", "1"}

        exit_code = main(["detect", protected_csv, "--expected-mark", mark, *COMMON])
        detect_out = capsys.readouterr().out
        assert exit_code == 0
        assert "mark loss      : 0%" in detect_out

    def test_detect_with_wrong_secret_fails_threshold(self, raw_csv, tmp_path, capsys):
        protected_csv = str(tmp_path / "protected.csv")
        main(["protect", raw_csv, protected_csv, *COMMON])
        out = capsys.readouterr().out
        mark = next(line for line in out.splitlines() if "mark F(v)" in line).split(":")[1].strip()

        wrong = [arg if arg != "cli-wm-secret" else "some-other-secret" for arg in COMMON]
        exit_code = main(["detect", protected_csv, "--expected-mark", mark, *wrong])
        capsys.readouterr()
        assert exit_code == 1

    def test_protect_writes_encrypted_identifiers(self, raw_csv, tmp_path, capsys):
        protected_csv = str(tmp_path / "protected.csv")
        main(["protect", raw_csv, protected_csv, *COMMON])
        capsys.readouterr()
        with open(raw_csv, encoding="utf-8") as raw, open(protected_csv, encoding="utf-8") as protected:
            raw_ssns = {line.split(",")[0] for line in raw.readlines()[1:]}
            protected_ssns = {line.split(",")[0] for line in protected.readlines()[1:]}
        assert raw_ssns.isdisjoint(protected_ssns)

    def test_missing_required_arguments(self):
        with pytest.raises(SystemExit):
            main(["protect", "in.csv", "out.csv"])  # secrets missing, no vault

    def test_json_mode_protect_and_detect(self, raw_csv, tmp_path, capsys):
        protected_csv = str(tmp_path / "protected.csv")
        assert main(["protect", raw_csv, protected_csv, "--json", *COMMON]) == 0
        protect_payload = json.loads(capsys.readouterr().out)
        assert protect_payload["rows"] == 800
        assert set(protect_payload["mark"]) <= {"0", "1"}

        exit_code = main(
            ["detect", protected_csv, "--expected-mark", protect_payload["mark"], "--json", *COMMON]
        )
        detect_payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert detect_payload["mark"] == protect_payload["mark"]
        assert detect_payload["mark_loss"] == 0.0
        assert detect_payload["ok"] is True


class TestVaultCLI:
    """The cold-start workflow: every command is a fresh main() invocation."""

    @pytest.fixture(scope="class")
    def vault(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("vault-cli") / "vault")

    def test_full_vault_round_trip(self, raw_csv, vault, tmp_path, capsys):
        protected_csv = str(tmp_path / "protected.csv")
        # Fixed secrets: with random per-run keys, a rare draw can leave one
        # mark bit with no embed bandwidth at this small scale (800 rows,
        # eta=20), flipping a clean-detect bit — the test would flake.
        assert main(
            [
                "vault", "init", vault, "--k", "10", "--eta", "20", "--json",
                "--encryption-key", "cli-roundtrip-ek",
                "--watermark-secret", "cli-roundtrip-ws",
            ]
        ) == 0
        init_payload = json.loads(capsys.readouterr().out)
        assert init_payload["tenant"] == "owner"

        assert main(["protect", raw_csv, protected_csv, "--vault", vault, "--dataset", "d", "--json"]) == 0
        protect_payload = json.loads(capsys.readouterr().out)
        assert protect_payload["rows"] == 800

        # Detection re-derives everything from the vault: zero mark loss.
        exit_code = main(
            ["detect", protected_csv, "--vault", vault, "--dataset", "d", "--workers", "4", "--json"]
        )
        detect_payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert detect_payload["mark"] == protect_payload["mark"]
        assert detect_payload["mark_loss"] == 0.0

        # The dispute resolves from re-hydrated claims; the owner prevails.
        assert main(["dispute", protected_csv, "--vault", vault, "--dataset", "d", "--json"]) == 0
        dispute_payload = json.loads(capsys.readouterr().out)
        assert dispute_payload["winner"] == "owner"

        assert main(["vault", "status", vault, "--json"]) == 0
        status_payload = json.loads(capsys.readouterr().out)
        assert status_payload["tenants"]["owner"]["datasets"]["d"]["rows"] == 800

    def test_vault_init_twice_fails_cleanly(self, vault, capsys):
        assert main(["vault", "init", vault]) == 2
        assert "already initialised" in capsys.readouterr().err

    def test_detect_against_unknown_vault_errors(self, raw_csv, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        assert main(["detect", raw_csv, "--vault", missing]) == 2
        assert "no vault" in capsys.readouterr().err

    def test_detect_unregistered_dataset_reports_ok_null(self, raw_csv, vault, tmp_path, capsys):
        """No vault record to compare against -> ok is null, not false."""
        protected_csv = str(tmp_path / "protected.csv")
        main(["protect", raw_csv, protected_csv, "--vault", vault, "--dataset", "d"])
        capsys.readouterr()
        exit_code = main(["detect", protected_csv, "--vault", vault, "--json"])  # dataset "protected"
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["expected_mark"] is None
        assert payload["mark_loss"] is None and payload["ok"] is None

    def test_explicit_parameters_conflict_with_vault(self, raw_csv, vault, tmp_path, capsys):
        """Vault mode must reject, not ignore, parameter and secret flags."""
        with pytest.raises(SystemExit):
            main(["detect", raw_csv, "--vault", vault, "--eta", "20"])
        assert "--eta conflict with --vault" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(
                ["protect", raw_csv, str(tmp_path / "o.csv"), "--vault", vault,
                 "--watermark-secret", "W"]
            )
        assert "--watermark-secret conflict with --vault" in capsys.readouterr().err


class TestExitCodesAndErrorJSON:
    """Satellite: uniform exit codes and {"error": ...} on --json failure paths."""

    def test_missing_vault_json_error(self, raw_csv, capsys):
        assert main(["detect", raw_csv, "--vault", "does-not-exist", "--json"]) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert set(payload) == {"error"}
        assert "no vault" in payload["error"]
        assert "error:" in captured.err

    def test_unknown_tenant_json_error(self, raw_csv, tmp_path, capsys):
        vault = str(tmp_path / "vault")
        main(["vault", "init", vault])
        capsys.readouterr()
        exit_code = main(
            ["protect", raw_csv, str(tmp_path / "o.csv"), "--vault", vault,
             "--tenant", "nobody", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 2
        assert "unknown tenant" in payload["error"]

    def test_bad_csv_json_error(self, tmp_path, capsys):
        vault = str(tmp_path / "vault")
        main(["vault", "init", vault])
        capsys.readouterr()
        bad = tmp_path / "bad.csv"
        bad.write_text("ssn,age,zip_code,doctor,symptom,prescription\n1,notanage,z,d,s,p\n")
        exit_code = main(
            ["protect", str(bad), str(tmp_path / "o.csv"), "--vault", vault, "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 2 and "error" in payload

    def test_missing_input_file_json_error(self, tmp_path, capsys):
        vault = str(tmp_path / "vault")
        main(["vault", "init", vault])
        capsys.readouterr()
        exit_code = main(
            ["detect", str(tmp_path / "nope.csv"), "--vault", vault, "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 2 and "error" in payload

    def test_url_and_vault_conflict(self, raw_csv, tmp_path):
        with pytest.raises(SystemExit):
            main(["detect", raw_csv, "--vault", str(tmp_path), "--url", "http://x:1"])

    def test_dispute_requires_exactly_one_mode(self, raw_csv):
        with pytest.raises(SystemExit):
            main(["dispute", raw_csv])
        with pytest.raises(SystemExit):
            main(["dispute", raw_csv, "--vault", "v", "--url", "http://x:1"])

    def test_vault_status_url_needs_tenant(self):
        with pytest.raises(SystemExit):
            main(["vault", "status", "--url", "http://x:1", "--token", "t"])

    def test_unreachable_server_json_error(self, raw_csv, tmp_path, capsys):
        exit_code = main(
            ["detect", raw_csv, "--url", "http://127.0.0.1:9", "--token", "t", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 2 and "error" in payload


class TestVaultTokenAndRunnerCLI:
    def test_vault_token_issues_and_rotates(self, tmp_path, capsys):
        vault = str(tmp_path / "vault")
        main(["vault", "init", vault])
        capsys.readouterr()
        assert main(["vault", "token", vault, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)["token"]
        assert main(["vault", "token", vault, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)["token"]
        assert first != second
        from repro.service.vault import KeyVault

        vault_obj = KeyVault(vault)
        assert vault_obj.verify_token("owner", second)
        assert not vault_obj.verify_token("owner", first)

    def test_detect_process_runner_vault_mode(self, raw_csv, tmp_path, capsys):
        vault = str(tmp_path / "vault")
        protected_csv = str(tmp_path / "protected.csv")
        main(["vault", "init", vault, "--k", "10", "--eta", "20"])
        main(["protect", raw_csv, protected_csv, "--vault", vault, "--dataset", "d"])
        capsys.readouterr()
        exit_code = main(
            ["detect", protected_csv, "--vault", vault, "--dataset", "d",
             "--workers", "2", "--runner", "process", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["runner"] == "process"
        assert payload["mark_loss"] == 0.0 and payload["ok"] is True


class TestExplicitModeRunnerRejected:
    def test_workers_and_runner_need_vault_or_url(self, raw_csv):
        with pytest.raises(SystemExit):
            main(["detect", raw_csv, *COMMON, "--workers", "4"])
        with pytest.raises(SystemExit):
            main(["detect", raw_csv, *COMMON, "--runner", "process"])


class TestRemoteRunnerCLI:
    """Satellite: empty-fleet and dead-worker paths exit 2 with {"error"} JSON."""

    @pytest.fixture(scope="class")
    def remote_env(self, raw_csv, tmp_path_factory):
        base = tmp_path_factory.mktemp("remote-cli")
        vault = str(base / "vault")
        protected_csv = str(base / "protected.csv")
        main(["vault", "init", vault, "--k", "10", "--eta", "20"])
        main(["protect", raw_csv, protected_csv, "--vault", vault, "--dataset", "d"])
        return vault, protected_csv

    def test_empty_fleet_exits_2_with_error_json(self, remote_env, capsys):
        vault, protected_csv = remote_env
        capsys.readouterr()
        exit_code = main(
            ["detect", protected_csv, "--vault", vault, "--dataset", "d",
             "--runner", "remote", "--json"]
        )
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert exit_code == 2
        assert set(payload) == {"error"}
        assert "worker url" in payload["error"]
        assert "error:" in captured.err

    def test_dead_worker_exits_2_with_error_json(self, remote_env, capsys):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        dead = f"http://127.0.0.1:{sock.getsockname()[1]}"
        sock.close()
        vault, protected_csv = remote_env
        capsys.readouterr()
        exit_code = main(
            ["detect", protected_csv, "--vault", vault, "--dataset", "d",
             "--runner", "remote", "--worker-url", dead, "--json"]
        )
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert exit_code == 2
        assert set(payload) == {"error"}
        assert "worker" in payload["error"]

    def test_live_fleet_detects_identically_to_thread(self, remote_env, capsys):
        from repro.service import KeyVault, ProtectionService
        from repro.service.http import ProtectionApp
        from repro.service.http.server import serve_in_thread

        vault, protected_csv = remote_env
        worker = ProtectionService(KeyVault(vault))
        server, url = serve_in_thread(ProtectionApp(worker))
        try:
            capsys.readouterr()
            assert main(
                ["detect", protected_csv, "--vault", vault, "--dataset", "d", "--json"]
            ) == 0
            thread_payload = json.loads(capsys.readouterr().out)
            exit_code = main(
                ["detect", protected_csv, "--vault", vault, "--dataset", "d",
                 "--runner", "remote", "--worker-url", url, "--json"]
            )
            remote_payload = json.loads(capsys.readouterr().out)
            assert exit_code == 0
            assert remote_payload["runner"] == "remote"
            assert remote_payload["mark"] == thread_payload["mark"]
            assert remote_payload["rows"] == thread_payload["rows"]
            assert remote_payload["tuples_selected"] == thread_payload["tuples_selected"]
            assert remote_payload["ok"] is True and remote_payload["mark_loss"] == 0.0
        finally:
            server.shutdown()
            server.server_close()

    def test_worker_url_requires_remote_runner(self, remote_env):
        vault, protected_csv = remote_env
        with pytest.raises(SystemExit):
            main(["detect", protected_csv, "--vault", vault, "--worker-url", "http://x:1"])

    def test_worker_token_and_timeout_require_remote_runner(self, remote_env):
        """Fleet flags are rejected, never silently dropped, outside remote mode."""
        vault, protected_csv = remote_env
        with pytest.raises(SystemExit):
            main(["detect", protected_csv, "--vault", vault, "--worker-token", "secret"])
        with pytest.raises(SystemExit):
            main(["detect", protected_csv, "--vault", vault, "--worker-timeout", "5"])

    def test_url_client_mode_rejects_remote_runner(self, remote_env):
        _, protected_csv = remote_env
        with pytest.raises(SystemExit):
            main(["detect", protected_csv, "--url", "http://x:1", "--token", "t",
                  "--runner", "remote"])


class TestRegistryAndAuditCLI:
    """vault init / audit verify round trips over the SQLite registry."""

    def test_init_and_status(self, tmp_path, capsys):
        import os

        vault = str(tmp_path / "vault")
        assert main(["vault", "init", vault, "--json", *COMMON]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "sqlite"
        assert os.path.exists(os.path.join(vault, "registry.db"))
        assert main(["vault", "status", vault, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["backend"] == "sqlite"

    def test_backend_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["vault", "init", str(tmp_path / "v"), "--backend", "sqlite", *COMMON])

    def test_audit_verify_tracks_the_pipeline(self, raw_csv, tmp_path, capsys):
        vault = str(tmp_path / "vault")
        protected_csv = str(tmp_path / "protected.csv")
        assert main(["vault", "init", vault, *COMMON]) == 0
        assert main(["protect", raw_csv, protected_csv, "--vault", vault, "--dataset", "d"]) == 0
        assert main(["dispute", protected_csv, "--vault", vault, "--dataset", "d"]) == 0
        capsys.readouterr()
        assert main(["audit", "verify", "--vault", vault, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        # init registers the owner (1) + protect (2) + dispute's detect-free
        # verdict (1) = at least 3 records; exact count is the chain's length.
        assert payload["records"] >= 3
        assert len(payload["head"]) == 64

    def test_audit_verify_reports_broken_chain(self, tmp_path, capsys):
        import os
        import sqlite3

        vault = str(tmp_path / "vault")
        assert main(["vault", "init", vault, *COMMON]) == 0
        conn = sqlite3.connect(os.path.join(vault, "registry.db"))
        with conn:
            conn.execute("UPDATE audit SET event = 'detect' WHERE idx = 0")
        conn.close()
        capsys.readouterr()
        assert main(["audit", "verify", "--vault", vault, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["failed_index"] == 0
