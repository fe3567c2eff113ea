"""Reference implementations the production code is tested against."""
