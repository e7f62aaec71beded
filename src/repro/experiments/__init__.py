"""The paper's evaluation, one module per figure."""
