import pytest

from nextpage.config import DEFAULT_WINDOW, EngineConfig, parse_config
from nextpage.errors import ConfigError


class TestEngineConfig:
    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.levels is None
        assert cfg.damping == 0.85
        assert cfg.demote_threshold == 100
        assert cfg.recency_window == 25
        assert cfg.sweep_period == 50
        assert cfg.window == DEFAULT_WINDOW == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"levels": 0},
            {"damping": 0.0},
            {"damping": 1.0},
            {"demote_threshold": 0},
            {"recency_window": 0},
            {"sweep_period": 0},
            {"window": -1},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            EngineConfig(**kwargs)

    def test_window_zero_allowed(self):
        assert EngineConfig(window=0).window == 0


class TestParseConfig:
    def test_full_file(self):
        cfg = parse_config(
            "# tuned\nlevels = 4\ndamping=0.9\ndemote_threshold=60\n"
            "recency_window=10\nsweep_period=20\nwindow=3\n"
        )
        assert cfg == EngineConfig(
            levels=4,
            damping=0.9,
            demote_threshold=60,
            recency_window=10,
            sweep_period=20,
            window=3,
        )

    def test_empty_file_gives_defaults(self):
        assert parse_config("") == EngineConfig()
        assert parse_config("# nothing\n\n") == EngineConfig()

    def test_partial_file(self):
        cfg = parse_config("window=5\n")
        assert cfg.window == 5
        assert cfg.damping == 0.85

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("window\n", "expected 'key=value'"),
            ("window=2\nwindow=3\n", "duplicate key window"),
            ("cache=9\n", "unknown key cache"),
            ("window=two\n", "bad value 'two'"),
            ("damping=high\n", "bad value 'high'"),
            ("levels=x\n", "bad value 'x'"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert fragment in str(exc.value)
        assert "line" in str(exc.value)

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ConfigError, match="damping"):
            parse_config("damping=1.5\n")

