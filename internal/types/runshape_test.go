package types

import "testing"

func TestRunShapeNormalize(t *testing.T) {
	cases := []struct {
		name    string
		in      RunShape
		want    RunShape
		wantErr bool
	}{
		{
			name: "zero value gets the documented defaults",
			in:   RunShape{},
			want: RunShape{Workers: 1, CommitEvery: 1, SnapshotEvery: 8, SnapshotBase: 1},
		},
		{
			name: "negative knobs are treated as unset",
			in:   RunShape{Workers: -3, CommitEvery: -1, SnapshotEvery: -8, SnapshotBase: -2},
			want: RunShape{Workers: 1, CommitEvery: 1, SnapshotEvery: 8, SnapshotBase: 1},
		},
		{
			name: "explicit values survive untouched",
			in:   RunShape{Workers: 8, CommitEvery: 2, SnapshotEvery: 4, SnapshotBase: 4},
			want: RunShape{Workers: 8, CommitEvery: 2, SnapshotEvery: 4, SnapshotBase: 4},
		},
		{
			name: "commit interval defaulted against explicit snapshot interval",
			in:   RunShape{SnapshotEvery: 6},
			want: RunShape{Workers: 1, CommitEvery: 1, SnapshotEvery: 6, SnapshotBase: 1},
		},
		{
			name:    "commit interval must divide snapshot interval",
			in:      RunShape{CommitEvery: 3, SnapshotEvery: 8},
			wantErr: true,
		},
		{
			name:    "defaulted snapshot interval still validated",
			in:      RunShape{CommitEvery: 5},
			wantErr: true, // 5 does not divide the default 8
		},
		{
			name: "commit equal to snapshot is legal",
			in:   RunShape{CommitEvery: 4, SnapshotEvery: 4},
			want: RunShape{Workers: 1, CommitEvery: 4, SnapshotEvery: 4, SnapshotBase: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in
			err := got.Normalize()
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Normalize(%+v) = %+v, want error", tc.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("Normalize(%+v): %v", tc.in, err)
			}
			if got != tc.want {
				t.Fatalf("Normalize(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

func TestRunShapeNormalizeIdempotent(t *testing.T) {
	s := RunShape{Workers: 4, CommitEvery: 2, SnapshotEvery: 8}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	first := s
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s != first {
		t.Fatalf("second Normalize changed the shape: %+v != %+v", s, first)
	}
}

func TestNormalizeWorkers(t *testing.T) {
	for in, want := range map[int]int{-1: 1, 0: 1, 1: 1, 7: 7} {
		if got := NormalizeWorkers(in); got != want {
			t.Fatalf("NormalizeWorkers(%d) = %d, want %d", in, got, want)
		}
	}
}
