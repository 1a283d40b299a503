package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		tuples, groups int64
		runs           int
		flag           string // "" = valid
	}{
		{4_000_000, 100_000, 3, ""},
		{1, 1, 1, ""},
		{10, 10, 1, ""},
		{0, 1, 3, "-tuples"},
		{-5, 1, 3, "-tuples"},
		{100, 0, 3, "-groups"},
		{100, -1, 3, "-groups"},
		{10, 20, 3, "-groups"},
		{100, 10, 0, "-runs"},
		{100, 10, -2, "-runs"},
	}
	for _, c := range cases {
		err := validateFlags(c.tuples, c.groups, c.runs)
		if c.flag == "" {
			if err != nil {
				t.Errorf("validateFlags(%d, %d, %d) = %v, want nil", c.tuples, c.groups, c.runs, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("validateFlags(%d, %d, %d) = %v, want an error naming %s", c.tuples, c.groups, c.runs, err, c.flag)
		}
	}
}
