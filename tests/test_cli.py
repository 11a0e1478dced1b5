import queue
import socket
import threading
import types

import pytest

from thlrecon import cli
from thlrecon.cli import main
from thlrecon.params import params_build
from thlrecon.protocol import read_set_text


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text(params_build(63, 1, 3, 2).canonical_text())
    return str(path)


@pytest.fixture()
def params_file_t2(tmp_path):
    path = tmp_path / "params2.txt"
    path.write_text(params_build(63, 2, 2, 1).canonical_text())
    return str(path)


def _gen(tmp_path, params_file, seed=1, common=6):
    a, b, d = (str(tmp_path / x) for x in ("a.txt", "b.txt", "d.txt"))
    rc = main(
        ["gen", params_file, a, b, "--seed", str(seed),
         "--common", str(common), "--delta", d]
    )
    assert rc == 0
    return a, b, d


def test_end_to_end_local(tmp_path, params_file, capsys):
    a, b, d = _gen(tmp_path, params_file)
    assert main(["verify", params_file, a, b, "--delta", d]) == 0
    capsys.readouterr()

    dig_b = str(tmp_path / "b.digest")
    assert main(["digest", params_file, b, dig_b]) == 0
    capsys.readouterr()

    assert main(["reconcile", params_file, a, "--peer-digest", dig_b]) == 0
    out = capsys.readouterr().out
    got = read_set_text(out, 63)
    expected = read_set_text((tmp_path / "d.txt").read_text(), 63)
    assert got == expected


def test_end_to_end_t2(tmp_path, params_file_t2, capsys):
    a, b, d = _gen(tmp_path, params_file_t2, seed=4, common=3)
    dig_b = str(tmp_path / "b.digest")
    assert main(["digest", params_file_t2, b, dig_b]) == 0
    capsys.readouterr()
    assert main(["reconcile", params_file_t2, a, "--peer-digest", dig_b]) == 0
    out = capsys.readouterr().out
    assert read_set_text(out, 63) == read_set_text(
        (tmp_path / "d.txt").read_text(), 63
    )


def _listening(monkeypatch, create_server=socket.create_server):
    """A queue that gets each socket ``reconcile --listen`` listens on,
    made by ``create_server``.  The tests listen on port 0, so the OS
    picks a free port and no fixed one can be taken."""
    servers = queue.Queue()

    def create(addr):
        srv = create_server(addr)
        servers.put(srv)
        return srv

    monkeypatch.setattr(cli, "socket", types.SimpleNamespace(
        create_server=create, create_connection=socket.create_connection,
    ))
    return servers


def test_reconcile_tcp(tmp_path, params_file, capsys, monkeypatch):
    a, b, d = _gen(tmp_path, params_file, seed=2)
    capsys.readouterr()
    servers = _listening(monkeypatch)
    rcs = {}

    def listen():
        rcs["listen"] = main(["reconcile", params_file, b, "--listen", "127.0.0.1:0"])

    t = threading.Thread(target=listen)
    t.start()
    port = servers.get(timeout=10).getsockname()[1]
    rcs["connect"] = main(
        ["reconcile", params_file, a, "--connect", f"127.0.0.1:{port}"]
    )
    t.join(10)
    assert rcs == {"listen": 0, "connect": 0}
    out = capsys.readouterr().out
    expected = read_set_text((tmp_path / "d.txt").read_text(), 63)
    # both sides printed the same delta, so the combined output holds
    # each element exactly twice
    lines = out.split()
    assert len(lines) == 2 * len(expected)
    assert read_set_text(out, 63) == expected


def test_mismatch_exit_code(tmp_path, params_file, capsys, monkeypatch):
    other = tmp_path / "other.txt"
    other.write_text(params_build(63, 1, 3, 1).canonical_text())
    a, b, _ = _gen(tmp_path, params_file, seed=3)
    servers = _listening(monkeypatch)
    rcs = {}

    def listen():
        rcs["listen"] = main(["reconcile", str(other), b, "--listen", "127.0.0.1:0"])

    t = threading.Thread(target=listen)
    t.start()
    port = servers.get(timeout=10).getsockname()[1]
    rcs["connect"] = main(
        ["reconcile", params_file, a, "--connect", f"127.0.0.1:{port}"]
    )
    t.join(10)
    capsys.readouterr()
    assert rcs == {"listen": 3, "connect": 3}


class _FailingListener(socket.socket):
    def accept(self):
        raise OSError("accept failed")


def test_listener_closed_when_accept_fails(tmp_path, params_file, capsys, monkeypatch):
    a, _, _ = _gen(tmp_path, params_file, seed=6)
    capsys.readouterr()

    def create_server(addr):
        srv = _FailingListener()
        srv.bind(addr)
        srv.listen()
        return srv

    servers = _listening(monkeypatch, create_server)
    assert main(["reconcile", params_file, a, "--listen", "127.0.0.1:0"]) == 2
    assert "accept failed" in capsys.readouterr().err
    assert servers.get_nowait().fileno() == -1  # closed


def test_inconsistent_exit_code(tmp_path, params_file, capsys):
    a, _, _ = _gen(tmp_path, params_file, seed=5)
    dig = tmp_path / "bad.digest"
    assert main(["digest", params_file, a, str(dig)]) == 0
    capsys.readouterr()
    raw = bytearray(dig.read_bytes())
    raw[0] ^= 0x55  # corrupt the comparison syndrome
    dig.write_bytes(bytes(raw))
    rc = main(["reconcile", params_file, a, "--peer-digest", str(dig)])
    capsys.readouterr()
    assert rc == 4


def test_usage_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["digest", missing, missing, missing]) == 2
    bad = tmp_path / "bad_params.txt"
    bad.write_text("n=63\nt=0\nh=2\nell=1\nI=\n")
    a = tmp_path / "a.txt"
    a.write_text("")
    assert main(["digest", str(bad), str(a), str(tmp_path / "o")]) == 2
    bad.write_text("n=abc\nt=1\nh=2\nell=1\n")
    assert main(["digest", str(bad), str(a), str(tmp_path / "o")]) == 2
    assert "params_file: line 1:" in capsys.readouterr().err
    bad.write_text("n=63\nt=1\nh=2\nell=1\nn=127\n")
    assert main(["digest", str(bad), str(a), str(tmp_path / "o")]) == 2
    assert "params_file: line 5: duplicate key 'n'" in capsys.readouterr().err


def test_bounds_grid_csv(capsys):
    rc = main(["bounds", "--n", "15,31", "--t", "1,2", "--h", "2", "--ell", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("n,t,h,ell,log2_lower,log2_upper")
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[4]) <= float(cells[5])


def test_bounds_reports_comp_field_limit(capsys):
    rc = main(["bounds", "--n", "255,511", "--t", "1", "--h", "1", "--ell", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 2
    assert lines[1].startswith("255,") and lines[1].split(",")[-1].isdigit()
    assert lines[2].startswith("511,")
    assert lines[2].endswith(",infeasible(comp_field_degree)")


def test_bounds_past_exact_limit_keeps_going(capsys):
    rc = main(["bounds", "--n", "255,1023", "--t", "1", "--h", "1", "--ell", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 2
    assert lines[2].startswith("1023,1,1,1,error,error,")
    assert lines[2].split(",")[-1].isdigit()


def test_bounds_curve_csv(capsys):
    rc = main(["bounds", "--curve", "--eta", "0.0,0.05", "--steps", "10"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lambda,eta,rate_lower,rate_upper"
    assert len(lines) == 1 + 9 * 2


def test_bench(tmp_path, params_file, capsys):
    rc = main(["bench", params_file, "--trials", "3", "--common", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith(",yes") for line in lines[1:])


def test_gen_without_an_instance_is_usage_error(tmp_path, capsys):
    # 7-bit elements leave no room for 200 shared ones
    path = tmp_path / "params7.txt"
    path.write_text(params_build(7, 1, 1, 1).canonical_text())
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert main(["gen", str(path), a, b, "--common", "200"]) == 2
    assert "error: no 7-bit string left beside 200 shared" in capsys.readouterr().err
