"""Reference implementations the vectorized code is checked against."""
